package layout

import (
	"fmt"
	"slices"
	"sort"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
)

// NodeID identifies a node. EdgeType tags an edge with its kind (§2.1).
type NodeID = int64

// EdgeType identifies the kind of an edge (comment, like, friendship...).
type EdgeType = int64

// Node is a node with its property list, the unit of NodeFile input.
type Node struct {
	ID    NodeID
	Props map[string]string
}

// BuildNodeFile serializes nodes into the NodeFile flat layout of
// Figure 1 and returns the flat file plus the sorted (NodeID, offset)
// index — the layout's "third data structure". Node order in the file is
// ascending NodeID.
func BuildNodeFile(nodes []Node, schema *PropertySchema) (flat []byte, ids []NodeID, offsets []int64, err error) {
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, nil, nil, fmt.Errorf("layout: duplicate node ID %d", sorted[i].ID)
		}
	}
	ids = make([]NodeID, len(sorted))
	offsets = make([]int64, len(sorted))
	for i, n := range sorted {
		ids[i] = n.ID
		offsets[i] = int64(len(flat))
		if flat, err = schema.SerializeProps(flat, n.Props); err != nil {
			return nil, nil, nil, fmt.Errorf("layout: node %d: %w", n.ID, err)
		}
	}
	return flat, ids, offsets, nil
}

// NodeFileView executes node queries over a serialized NodeFile (§3.4).
// The same view works over a compressed succinct source (immutable
// shards) or raw bytes (LogStore).
type NodeFileView struct {
	src    ByteSource
	schema *PropertySchema
	ids    []NodeID
	// offs holds the per-record start offsets delta-packed: record
	// starts ascend monotonically, so the column compresses from 8
	// bytes/node to roughly its delta entropy.
	offs *bitutil.MonotoneVector

	med *memsim.Medium
	reg uint32 // region for the (NodeID, offset) index
}

// NewNodeFileView wraps a serialized NodeFile. ids/offsets must be
// parallel and sorted by ID (which makes offsets non-decreasing). The
// index's footprint is charged to med (nil = unlimited).
func NewNodeFileView(src ByteSource, schema *PropertySchema, ids []NodeID, offsets []int64, med *memsim.Medium) *NodeFileView {
	if med == nil {
		med = memsim.Unlimited()
	}
	return &NodeFileView{
		src:    src,
		schema: schema,
		ids:    ids,
		offs:   PackOffsets(offsets),
		med:    med,
		// The index charge stays at the historical 16 bytes/node so
		// medium-pressure experiments remain comparable across builds;
		// the Go-heap saving from the packed column is real either way.
		reg: med.Register(int64(len(ids)) * 16),
	}
}

// PackOffsets delta-packs a non-decreasing record-offset column.
func PackOffsets(offsets []int64) *bitutil.MonotoneVector {
	vals := make([]uint64, len(offsets))
	for i, o := range offsets {
		vals[i] = uint64(o)
	}
	return bitutil.NewMonotoneVector(vals)
}

// NumNodes returns the number of nodes in the file.
func (v *NodeFileView) NumNodes() int { return len(v.ids) }

// Schema returns the node property schema.
func (v *NodeFileView) Schema() *PropertySchema { return v.schema }

// IDs returns the sorted node IDs backing the view.
func (v *NodeFileView) IDs() []NodeID { return v.ids }

// Offsets materializes the per-node record offsets parallel to IDs.
func (v *NodeFileView) Offsets() []int64 {
	out := make([]int64, 0, v.offs.Len())
	for _, u := range v.offs.DecodeAll(make([]uint64, 0, v.offs.Len())) {
		out = append(out, int64(u))
	}
	return out
}

// OffsetsVector returns the packed offset column (for region reports).
func (v *NodeFileView) OffsetsVector() *bitutil.MonotoneVector { return v.offs }

// Contains reports whether the file holds a record for id.
func (v *NodeFileView) Contains(id NodeID) bool { return v.indexOf(id) >= 0 }

// indexOf returns the index of id in the sorted index, or -1.
func (v *NodeFileView) indexOf(id NodeID) int {
	k := bitutil.SearchGE(v.ids, id)
	// Charge the binary search's touches on the index.
	v.med.Access(v.reg, int64(k)*16, 16)
	if k < len(v.ids) && v.ids[k] == id {
		return k
	}
	return -1
}

// GetProperty returns the value of one property for a node and whether
// the node exists and has the property. Per §3.4 this costs the index
// lookup, the length-header bytes, and one extract of the value itself —
// issued as a single record walk, so over a compressed source the header
// read and the value read share one ISA anchor.
func (v *NodeFileView) GetProperty(id NodeID, propertyID string) (string, bool) {
	k := v.indexOf(id)
	if k < 0 {
		return "", false
	}
	order := v.schema.Order(propertyID)
	if order < 0 {
		return "", false
	}
	sc := getScratch()
	defer putScratch(sc)
	hs := v.schema.headerSize()
	w := newRecWalk(v.src, int(v.offs.Get(k)))
	sc.buf = w.appendN(sc.buf[:0], hs)
	if len(sc.buf) < hs {
		return "", false
	}
	lengths := sc.lengths(v.schema.NumProperties())
	v.schema.decodeLengthsInto(lengths, sc.buf)
	if lengths[order] == 0 {
		return "", false
	}
	off, n := v.schema.valueLocation(lengths, order)
	w.skip(off - hs)
	sc.buf = w.appendN(sc.buf[:0], n)
	return string(sc.buf), true
}

// GetProperties returns the values for the given property IDs; absent
// properties yield empty strings. A nil or empty propertyIDs slice is the
// wildcard: all properties in schema order (paper §2.2). The record is
// read in one front-to-back walk, skipping unrequested values.
func (v *NodeFileView) GetProperties(id NodeID, propertyIDs []string) ([]string, bool) {
	k := v.indexOf(id)
	if k < 0 {
		return nil, false
	}
	sc := getScratch()
	defer putScratch(sc)
	w := newRecWalk(v.src, int(v.offs.Get(k)))
	return v.propsFromWalk(&w, propertyIDs, sc)
}

// propsFromWalk is the body of GetProperties over an already-positioned
// record walk (w at the record's first header byte). The batch read path
// calls it with a shared walker; GetProperties with a fresh one.
func (v *NodeFileView) propsFromWalk(w *recWalk, propertyIDs []string, sc *recScratch) ([]string, bool) {
	if len(propertyIDs) == 0 {
		propertyIDs = v.schema.IDs()
	}
	hs := v.schema.headerSize()
	sc.buf = w.appendN(sc.buf[:0], hs)
	if len(sc.buf) < hs {
		return nil, false
	}
	lengths := sc.lengths(v.schema.NumProperties())
	v.schema.decodeLengthsInto(lengths, sc.buf)
	ords := sc.orders(len(propertyIDs))
	last := -1
	for i, pid := range propertyIDs {
		ords[i] = v.schema.Order(pid)
		if ords[i] > last {
			last = ords[i]
		}
	}
	out := make([]string, len(propertyIDs))
	for o := 0; o <= last; o++ {
		w.skip(len(v.schema.Delimiter(o)))
		n := lengths[o]
		wanted := false
		for _, ro := range ords {
			if ro == o {
				wanted = true
				break
			}
		}
		if !wanted || n == 0 {
			w.skip(n)
			continue
		}
		sc.buf = w.appendN(sc.buf[:0], n)
		val := string(sc.buf)
		for i, ro := range ords {
			if ro == o {
				out[i] = val
			}
		}
	}
	return out, true
}

// GetAllProps returns the node's full property map.
func (v *NodeFileView) GetAllProps(id NodeID) (map[string]string, bool) {
	k := v.indexOf(id)
	if k < 0 {
		return nil, false
	}
	vals, _ := v.GetProperties(id, nil)
	props := make(map[string]string)
	for i, pid := range v.schema.IDs() {
		if vals[i] != "" {
			props[pid] = vals[i]
		}
	}
	return props, true
}

// FindNodes returns the IDs of all nodes whose properties exactly match
// every (propertyID, value) pair (§3.4's get_node_ids): each value is
// wrapped in its property's delimiter and the next delimiter, located
// with the search primitive, and translated back to node IDs via binary
// search over the offset index. Multiple pairs intersect.
func (v *NodeFileView) FindNodes(props map[string]string) []NodeID {
	if len(props) == 0 {
		return nil
	}
	var result map[NodeID]bool
	for pid, val := range props {
		order := v.schema.Order(pid)
		if order < 0 {
			return nil
		}
		pattern := append([]byte(nil), v.schema.Delimiter(order)...)
		pattern = append(pattern, val...)
		pattern = append(pattern, v.schema.NextDelimiter(order)...)
		matches := v.src.Search(pattern)
		ids := make(map[NodeID]bool, len(matches))
		for _, off := range matches {
			k := seqOffsetToIndex(v.offs, off)
			v.med.Access(v.reg, int64(k)*16, 16)
			if k >= 0 {
				ids[v.ids[k]] = true
			}
		}
		if result == nil {
			result = ids
		} else {
			for id := range result {
				if !ids[id] {
					delete(result, id)
				}
			}
		}
		if len(result) == 0 {
			return nil
		}
	}
	out := make([]NodeID, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// MatchesProps reports whether node id has every given property value
// (used by get_neighbor_ids' filter step, which checks each neighbor
// instead of joining — §2.2).
func (v *NodeFileView) MatchesProps(id NodeID, props map[string]string) bool {
	for pid, val := range props {
		got, ok := v.GetProperty(id, pid)
		if !ok || got != val {
			return false
		}
	}
	return true
}
