package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

// shardWire is the on-disk/wire form of a shard: the two serialized
// succinct stores, the uncompressed node index, and the schema specs
// needed to rebuild the views. This is the "serialized flat files"
// persistence of §4.1.
type shardWire struct {
	NodeStore    []byte
	EdgeStore    []byte
	NodeIDs      []int64
	NodeOffsets  []int64
	EdgeSrcs     []int64
	EdgeIndex    []layout.EdgeRecordIndex
	NodeSchema   layout.SchemaSpec
	EdgeSchema   layout.SchemaSpec
	RawNodeBytes int
	RawEdgeBytes int
	// EdgeFormat versions the EdgeFile record layout. Gob leaves absent
	// fields zero, so shards serialized before the hot-field header
	// decode to layout.EdgeFormatLegacy and keep parsing correctly.
	EdgeFormat int
}

// MarshalBinary serializes the shard.
func (s *Shard) MarshalBinary() ([]byte, error) {
	w := shardWire{
		NodeStore:    s.nodeStore.MarshalBinary(),
		EdgeStore:    s.edgeStore.MarshalBinary(),
		NodeIDs:      s.nodes.IDs(),
		NodeOffsets:  s.nodes.Offsets(),
		EdgeSrcs:     s.edgeSrcs,
		EdgeIndex:    s.edgeIndexSlice(),
		NodeSchema:   s.nodes.Schema().Spec(),
		EdgeSchema:   s.edges.Schema().Spec(),
		RawNodeBytes: s.rawNodeBytes,
		RawEdgeBytes: s.rawEdgeBytes,
		EdgeFormat:   s.edgeFormat,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("core: marshal shard: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalShard reconstructs a shard serialized by MarshalBinary,
// placing it on med (nil = unlimited). The index columns are checked
// against each other and against the decoded stores before any view is
// built, so malformed wire data returns an error instead of panicking
// at load or at the first query.
func UnmarshalShard(data []byte, med *memsim.Medium) (*Shard, error) {
	var w shardWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: unmarshal shard: %w", err)
	}
	nodeSchema, err := w.NodeSchema.Build()
	if err != nil {
		return nil, fmt.Errorf("core: node schema: %w", err)
	}
	edgeSchema, err := w.EdgeSchema.Build()
	if err != nil {
		return nil, fmt.Errorf("core: edge schema: %w", err)
	}
	s := &Shard{rawNodeBytes: w.RawNodeBytes, rawEdgeBytes: w.RawEdgeBytes, edgeSrcs: w.EdgeSrcs, edgeFormat: w.EdgeFormat}
	if s.nodeStore, err = succinct.UnmarshalStore(w.NodeStore, med); err != nil {
		return nil, fmt.Errorf("core: node store: %w", err)
	}
	if s.edgeStore, err = succinct.UnmarshalStore(w.EdgeStore, med); err != nil {
		return nil, fmt.Errorf("core: edge store: %w", err)
	}
	if err := checkNodeIndex(w.NodeIDs, w.NodeOffsets, s.nodeStore.InputLen()); err != nil {
		return nil, err
	}
	if err := checkEdgeIndex(w.EdgeIndex, len(w.EdgeSrcs), s.edgeStore.InputLen()); err != nil {
		return nil, err
	}
	s.setEdgeIndex(w.EdgeIndex)
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, w.NodeIDs, w.NodeOffsets, med)
	s.edges = layout.NewEdgeFileViewFormat(s.edgeStore, edgeSchema, s.edgeFormat)
	return s, nil
}

// checkOffset validates record offset i of a column: in [0, limit) and
// not below its predecessor prev.
func checkOffset(column string, i int, off, prev int64, limit int) error {
	if off < 0 || off >= int64(limit) {
		return fmt.Errorf("core: %s offset %d = %d outside the %d-byte file", column, i, off, limit)
	}
	if i > 0 && off < prev {
		return fmt.Errorf("core: %s offsets not monotone at %d (%d < %d)", column, i, off, prev)
	}
	return nil
}

// checkNodeIndex validates the NodeFile index: one offset per node, IDs
// strictly ascending, offsets non-decreasing inside the node file.
func checkNodeIndex(ids, offs []int64, fileLen int) error {
	if len(offs) != len(ids) {
		return fmt.Errorf("core: %d node offsets for %d node IDs", len(offs), len(ids))
	}
	for i, off := range offs {
		if i > 0 && ids[i] <= ids[i-1] {
			return fmt.Errorf("core: node IDs not ascending at %d", i)
		}
		var prev int64
		if i > 0 {
			prev = offs[i-1]
		}
		if err := checkOffset("node", i, off, prev, fileLen); err != nil {
			return err
		}
	}
	return nil
}

// checkEdgeIndex validates the EdgeFile record index: at least one
// record per edge source, keys strictly ascending by (src, type), and
// offsets non-decreasing inside the edge file.
func checkEdgeIndex(index []layout.EdgeRecordIndex, numSrcs, fileLen int) error {
	if len(index) < numSrcs {
		return fmt.Errorf("core: %d edge records for %d edge sources", len(index), numSrcs)
	}
	for i, r := range index {
		var prev int64
		if i > 0 {
			p := index[i-1]
			if r.Src < p.Src || (r.Src == p.Src && r.Type <= p.Type) {
				return fmt.Errorf("core: edge index keys not ascending at %d", i)
			}
			prev = p.Offset
		}
		if err := checkOffset("edge index", i, r.Offset, prev, fileLen); err != nil {
			return err
		}
	}
	return nil
}
