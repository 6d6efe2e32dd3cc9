// Package core implements a ZipG shard: one partition of the graph held
// as a compressed NodeFile and EdgeFile (§3.3) queried directly in their
// compressed form (§3.4). Shards are immutable once built — all mutation
// happens in the LogStore and in the store-level update pointers and
// deletion bitmaps (§3.5) — so shard reads take no locks.
package core

import (
	"fmt"
	"sort"

	"zipg/internal/bitutil"
	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/parallel"
	"zipg/internal/succinct"
)

// Options configures shard construction.
type Options struct {
	// SamplingRate is Succinct's α (0 = default).
	SamplingRate int
	// Medium is the simulated storage for this shard's structures
	// (nil = unlimited).
	Medium *memsim.Medium
}

// Shard is one immutable graph partition in ZipG layout over compressed
// storage.
type Shard struct {
	nodes *layout.NodeFileView
	edges *layout.EdgeFileView

	nodeStore *succinct.Store
	edgeStore *succinct.Store

	// edgeSrcs lists the distinct source IDs with edge records in this
	// shard (needed to enumerate records, e.g. for compaction: a shard
	// frozen from a LogStore may hold edges for sources whose node
	// records live in other fragments).
	edgeSrcs []layout.NodeID
	// The edge record index lists every record's key and offset in file
	// order (used by edge-property search and by batch reads, which
	// locate records by binary search here instead of compressed
	// search). Stored as columns: the key columns stay raw for the
	// binary search, while the offset column — strictly increasing — is
	// delta-packed like the NodeFile offsets.
	edgeIdxSrcs  []layout.NodeID
	edgeIdxTypes []layout.EdgeType
	edgeIdxOffs  *bitutil.MonotoneVector
	// edgeFormat is the EdgeFile record format (layout.EdgeFormat*);
	// shards deserialized from pre-hot-header builds carry Legacy.
	edgeFormat int

	rawNodeBytes int
	rawEdgeBytes int
}

// Build compresses the given nodes and edges into a shard. The schemas
// must be the system-global ones so delimiters agree across shards.
func Build(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, opts Options) (*Shard, error) {
	nodeFlat, ids, offs, err := layout.BuildNodeFile(nodes, nodeSchema)
	if err != nil {
		return nil, fmt.Errorf("core: node file: %w", err)
	}
	// New shards always build with the hot-field header; pre-hot shards
	// deserialize with the legacy format recorded in their wire form.
	edgeFlat, edgeIndex, err := layout.BuildEdgeFileFormat(edges, edgeSchema, layout.EdgeFormatHot)
	if err != nil {
		return nil, fmt.Errorf("core: edge file: %w", err)
	}
	succOpts := succinct.Options{SamplingRate: opts.SamplingRate, Medium: opts.Medium}
	// The NodeFile and EdgeFile suffix arrays are independent; build them
	// concurrently on the shared pool (each Build stays sequential inside).
	stores := parallel.Map("core.build_succinct", 2, func(i int) *succinct.Store {
		if i == 0 {
			return succinct.Build(nodeFlat, succOpts)
		}
		return succinct.Build(edgeFlat, succOpts)
	})
	s := &Shard{
		nodeStore:    stores[0],
		edgeStore:    stores[1],
		edgeSrcs:     distinctSources(edges),
		edgeFormat:   layout.EdgeFormatHot,
		rawNodeBytes: len(nodeFlat),
		rawEdgeBytes: len(edgeFlat),
	}
	s.setEdgeIndex(edgeIndex)
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, ids, offs, opts.Medium)
	s.edges = layout.NewEdgeFileViewFormat(s.edgeStore, edgeSchema, s.edgeFormat)
	return s, nil
}

// setEdgeIndex splits the build-time edge record index into its key
// columns and the packed offset column.
func (s *Shard) setEdgeIndex(index []layout.EdgeRecordIndex) {
	s.edgeIdxSrcs = make([]layout.NodeID, len(index))
	s.edgeIdxTypes = make([]layout.EdgeType, len(index))
	offs := make([]int64, len(index))
	for i, r := range index {
		s.edgeIdxSrcs[i] = r.Src
		s.edgeIdxTypes[i] = r.Type
		offs[i] = r.Offset
	}
	s.edgeIdxOffs = layout.PackOffsets(offs)
}

// edgeIndexSlice materializes the columnar edge record index back into
// row form (the whole-file scans that want rows are already O(records)).
func (s *Shard) edgeIndexSlice() []layout.EdgeRecordIndex {
	out := make([]layout.EdgeRecordIndex, len(s.edgeIdxSrcs))
	for i := range out {
		out[i] = layout.EdgeRecordIndex{Src: s.edgeIdxSrcs[i], Type: s.edgeIdxTypes[i], Offset: int64(s.edgeIdxOffs.Get(i))}
	}
	return out
}

// Nodes returns the shard's NodeFile view.
func (s *Shard) Nodes() *layout.NodeFileView { return s.nodes }

// Edges returns the shard's EdgeFile view.
func (s *Shard) Edges() *layout.EdgeFileView { return s.edges }

// NumNodes returns how many node records the shard holds.
func (s *Shard) NumNodes() int { return s.nodes.NumNodes() }

// CompressedSize returns the shard's compressed footprint in bytes
// (excluding the node offset index, which is uncompressed by design).
func (s *Shard) CompressedSize() int {
	return s.nodeStore.CompressedSize() + s.edgeStore.CompressedSize()
}

// RawSize returns the size of the uncompressed flat files.
func (s *Shard) RawSize() int { return s.rawNodeBytes + s.rawEdgeBytes }

// EdgeSources returns the distinct source node IDs that have edge
// records in this shard, ascending.
func (s *Shard) EdgeSources() []layout.NodeID { return s.edgeSrcs }

// EdgeFormat returns the shard's EdgeFile record format.
func (s *Shard) EdgeFormat() int { return s.edgeFormat }

// SamplingRate returns the α the shard's succinct stores were built with.
func (s *Shard) SamplingRate() int { return s.nodeStore.SamplingRate() }

// EdgeRecordOffset locates the (src, etype) record's start offset via
// binary search over the in-memory build index — O(log records) with no
// compressed-store work, where GetEdgeRecord pays a full backward
// search. The batch read paths use this to turn record location into
// pure arithmetic before the sorted sweep.
func (s *Shard) EdgeRecordOffset(src layout.NodeID, etype layout.EdgeType) (int64, bool) {
	lo, hi := 0, len(s.edgeIdxSrcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.edgeIdxSrcs[mid] < src || (s.edgeIdxSrcs[mid] == src && s.edgeIdxTypes[mid] < etype) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.edgeIdxSrcs) && s.edgeIdxSrcs[lo] == src && s.edgeIdxTypes[lo] == etype {
		return int64(s.edgeIdxOffs.Get(lo)), true
	}
	return 0, false
}

// FindEdges returns the edges in this shard whose property lists match
// every pair exactly — the edge-search extension of §3.3.
func (s *Shard) FindEdges(props map[string]string) []layout.EdgeMatch {
	return s.edges.FindEdges(s.edgeIndexSlice(), props)
}

// Regions describes every packed region of the shard: the two succinct
// stores' Ψ/SA/ISA regions plus the NodeFile and EdgeFile offset
// columns, with per-region element count and size.
func (s *Shard) Regions() []succinct.Region {
	var out []succinct.Region
	for _, r := range s.nodeStore.Regions() {
		r.Name = "node/" + r.Name
		out = append(out, r)
	}
	for _, r := range s.edgeStore.Regions() {
		r.Name = "edge/" + r.Name
		out = append(out, r)
	}
	nodeOffs := s.nodes.OffsetsVector()
	return append(out,
		succinct.Region{Name: "node/offsets", Elems: nodeOffs.Len(), Bytes: nodeOffs.SizeBytes()},
		succinct.Region{Name: "edge/index", Elems: s.edgeIdxOffs.Len(), Bytes: s.edgeIdxOffs.SizeBytes()})
}

// distinctSources extracts the sorted distinct edge sources.
func distinctSources(edges []layout.Edge) []layout.NodeID {
	seen := make(map[layout.NodeID]bool, len(edges))
	var out []layout.NodeID
	for _, e := range edges {
		if !seen[e.Src] {
			seen[e.Src] = true
			out = append(out, e.Src)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
