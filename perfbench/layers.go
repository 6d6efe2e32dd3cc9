package main

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"zipg/internal/cluster"
	"zipg/internal/graphapi"
	"zipg/internal/telemetry"
)

// Layers are measured from outside the program: a timing decorator at
// the graphapi.Store / graphapi.EdgeRecord boundary, deltas of the
// telemetry registry, and the phases of server-side spans.

// The boundary calls timedStore times, in metric order.
const (
	callGetEdgeRecord = iota
	callEdgeRange
	callEdgeData
	callGetNodeProperty
	callAppendEdge
	callAppendNode
	callDeleteEdges
	callDeleteNode
	numCalls
)

var callNames = [numCalls]string{
	"get_edge_record", "edge_range", "edge_data", "get_node_property",
	"append_edge", "append_node", "delete_edges", "delete_node",
}

// callTimes accumulates one client's boundary calls. Each client owns
// one, so it needs no locking.
type callTimes struct {
	n, ns [numCalls]int64
	// numServers > 0 makes the decorator track, per op, the set of
	// servers the op's calls were routed to.
	numServers int
	owners     uint64
	ops        int64
	servers    int64
}

func (t *callTimes) add(c int, id graphapi.NodeID, start time.Time) {
	t.n[c]++
	t.ns[c] += int64(time.Since(start))
	if t.numServers > 0 {
		t.owners |= 1 << cluster.OwnerOf(id, t.numServers)
	}
}

// endOp closes the current op's server set.
func (t *callTimes) endOp() {
	t.ops++
	t.servers += int64(bits.OnesCount64(t.owners))
	t.owners = 0
}

// timedStore times every boundary call a client makes.
type timedStore struct {
	graphapi.Store
	t *callTimes
}

func (s timedStore) GetNodeProperty(id graphapi.NodeID, pids []string) ([]string, bool) {
	defer s.t.add(callGetNodeProperty, id, time.Now())
	return s.Store.GetNodeProperty(id, pids)
}

func (s timedStore) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	start := time.Now()
	rec, ok := s.Store.GetEdgeRecord(id, etype)
	s.t.add(callGetEdgeRecord, id, start)
	if !ok {
		return nil, false
	}
	return timedRecord{rec, id, s.t}, true
}

func (s timedStore) AppendNode(id graphapi.NodeID, props map[string]string) error {
	defer s.t.add(callAppendNode, id, time.Now())
	return s.Store.AppendNode(id, props)
}

func (s timedStore) AppendEdge(e graphapi.Edge) error {
	defer s.t.add(callAppendEdge, e.Src, time.Now())
	return s.Store.AppendEdge(e)
}

func (s timedStore) DeleteNode(id graphapi.NodeID) error {
	defer s.t.add(callDeleteNode, id, time.Now())
	return s.Store.DeleteNode(id)
}

func (s timedStore) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	defer s.t.add(callDeleteEdges, src, time.Now())
	return s.Store.DeleteEdges(src, etype, dst)
}

// timedRecord times the record calls that do work; Count is metadata
// the record already holds.
type timedRecord struct {
	graphapi.EdgeRecord
	id graphapi.NodeID
	t  *callTimes
}

func (r timedRecord) Range(tLo, tHi int64) (int, int) {
	defer r.t.add(callEdgeRange, r.id, time.Now())
	return r.EdgeRecord.Range(tLo, tHi)
}

func (r timedRecord) Data(timeOrder int) (graphapi.EdgeData, error) {
	defer r.t.add(callEdgeData, r.id, time.Now())
	return r.EdgeRecord.Data(timeOrder)
}

// phaseHarvest aggregates the span phases of finished traces the way
// internal/bench's trace attribution does: every phase duration by
// phase name, and how much of each server-side serve span its own phases
// and child spans cover.
type phaseHarvest struct {
	mu      sync.Mutex
	seen    map[telemetry.TraceID]bool
	phases  map[string][]float64 // µs
	served  time.Duration
	covered time.Duration
}

func newPhaseHarvest() *phaseHarvest {
	return &phaseHarvest{seen: map[telemetry.TraceID]bool{}, phases: map[string][]float64{}}
}

// poll consumes every recent trace whose root span has ended. A trace
// whose root is still open is left for a later poll.
func (h *phaseHarvest) poll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range telemetry.RecentTraces(128) {
		if h.seen[id] {
			continue
		}
		tree := telemetry.AssembleTrace(id)
		if tree == nil || !hasRoot(tree) {
			continue
		}
		h.seen[id] = true
		for _, n := range tree.Roots {
			h.walk(n)
		}
	}
}

func hasRoot(tree *telemetry.TraceTree) bool {
	for _, n := range tree.Roots {
		if n.Span.ParentID == 0 {
			return true
		}
	}
	return false
}

func (h *phaseHarvest) walk(n *telemetry.TraceNode) {
	var own time.Duration
	for _, p := range n.Span.Phases {
		h.phases[p.Name] = append(h.phases[p.Name], float64(p.Ns)/1e3)
		own += time.Duration(p.Ns)
	}
	if strings.HasPrefix(n.Span.Op, "rpc.serve:") && n.Span.Duration > 0 {
		for _, c := range n.Children {
			own += c.Span.Duration
		}
		h.served += n.Span.Duration
		h.covered += min(own, n.Span.Duration)
	}
	for _, c := range n.Children {
		h.walk(c)
	}
}

// coverage is the share of server serve time that phases account for.
func (h *phaseHarvest) coverage() float64 {
	if h.served == 0 {
		return 0
	}
	return float64(h.covered) / float64(h.served)
}

// counterSum adds up every series of a counter family in exposition
// text. It reads the exposition rather than a telemetry.Snapshot
// because a Snapshot keeps one value per series name, and a CounterVec
// whose first use raced registers its series twice (see NOTES.md).
func counterSum(text, family string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// histogramDelta returns, per power-of-two bucket, how many observations
// a histogram family gained between two Prometheus expositions of the
// registry. Bucket i holds values in (2^(i-1), 2^i].
func histogramDelta(before, after, family string) []int64 {
	b, a := bucketCounts(before, family), bucketCounts(after, family)
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// bucketCounts parses the non-cumulative bucket counts of one histogram
// from exposition text (elided buckets hold nothing).
func bucketCounts(text, family string) []int64 {
	prefix := family + `_bucket{le="`
	var bounds []int64
	cum := map[int64]int64{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok || le == "+Inf" {
			continue
		}
		bound, err1 := strconv.ParseInt(le, 10, 64)
		n, err2 := strconv.ParseInt(count, 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bounds = append(bounds, bound)
		cum[bound] = n
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make([]int64, 64)
	var prev int64
	for _, bound := range bounds {
		out[bits.Len64(uint64(bound))-1] = cum[bound] - prev
		prev = cum[bound]
	}
	return out
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile of per-bucket counts, and 0 when they are all empty.
func bucketQuantile(counts []int64, q float64) int64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range counts {
		if cum += n; cum >= rank {
			return int64(1) << i
		}
	}
	return 0
}
