package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"time"

	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/workloads"
)

// numClients is the width of the closed loop: each client sends its next
// call only after the previous reply, as TAO/LinkBench web-tier callers do.
const numClients = 2

// writeKinds are Table 2's write operations.
var writeKinds = []workloads.OpKind{
	workloads.OpAssocAdd, workloads.OpObjUpdate, workloads.OpObjAdd,
	workloads.OpAssocDel, workloads.OpObjDel, workloads.OpAssocUpdate,
}

func isWrite(k workloads.OpKind) bool { return slices.Contains(writeKinds, k) }

// inClass moves a node ID into client c's residue class mod numClients.
func inClass(id graphapi.NodeID, c int) graphapi.NodeID {
	return id - id%numClients + graphapi.NodeID(c)
}

// clientOps returns client c's op sequence: n ops of the workload's
// Table 2 mix drawn from the client's own seed, less the omitted kinds,
// with every
// node ID an op touches (ID, Edge.Src, Edge.Dst) moved into the client's
// residue class. Clients then never touch each other's nodes, so under
// any interleaving each client sees the answers of its own sequential
// run, and the final graph is the same.
//
// The order of edges with equal timestamps is unspecified (the
// conformance suite compares them as multisets), so a window that cuts
// through such a tie has more than one right answer. A new edge whose
// timestamp is already taken in its (source, type) record moves to the
// next free second, which leaves every answer exactly one right value.
func clientOps(d *gen.Dataset, w *workload, seed int64, c, n int) []workloads.Op {
	type slot struct {
		src, etype, ts int64
	}
	taken := map[slot]bool{}
	for _, e := range d.Edges {
		taken[slot{e.Src, e.Type, e.Timestamp}] = true
	}
	cfg := workloads.MixConfig{Mix: w.mix, AccessSkew: w.skew, Seed: seed<<8 + int64(2*c)}
	var ops []workloads.Op
	for _, op := range workloads.GenerateOps(d, cfg, n) {
		if slices.Contains(w.omit, op.Kind) {
			continue
		}
		op.ID = inClass(op.ID, c)
		switch op.Kind {
		case workloads.OpAssocAdd, workloads.OpAssocUpdate, workloads.OpAssocDel:
			op.Edge.Src = inClass(op.Edge.Src, c)
			op.Edge.Dst = inClass(op.Edge.Dst, c)
		}
		if op.Kind == workloads.OpAssocAdd || op.Kind == workloads.OpAssocUpdate {
			for taken[slot{op.Edge.Src, op.Edge.Type, op.Edge.Timestamp}] {
				op.Edge.Timestamp++
			}
			taken[slot{op.Edge.Src, op.Edge.Type, op.Edge.Timestamp}] = true
		}
		ops = append(ops, op)
	}
	return ops
}

// answer is everything one op returned.
type answer struct {
	ok    bool
	vals  []string
	edges []graphapi.EdgeData
	n     int // assoc_count's count, or the edges DeleteEdges removed
	err   error
}

// call runs one op: reads through the workloads package's Table 2
// algorithms, writes straight at the store so that DeleteEdges'
// removed-count is kept.
func call(s graphapi.Store, op *workloads.Op) answer {
	t := workloads.TAO{S: s}
	var a answer
	switch op.Kind {
	case workloads.OpObjGet:
		a.vals, a.ok = t.ObjGet(op.ID)
	case workloads.OpAssocRange:
		a.edges, a.err = t.AssocRange(op.ID, op.AType, op.Idx, op.Limit)
	case workloads.OpAssocGet:
		a.edges, a.err = t.AssocGet(op.ID, op.AType, op.ID2, op.Lo, op.Hi)
	case workloads.OpAssocCount:
		a.n = t.AssocCount(op.ID, op.AType)
	case workloads.OpAssocTimeRange:
		a.edges, a.err = t.AssocTimeRange(op.ID, op.AType, op.Lo, op.Hi, op.Limit)
	case workloads.OpAssocAdd:
		a.err = s.AppendEdge(op.Edge)
	case workloads.OpObjUpdate, workloads.OpObjAdd:
		a.err = s.AppendNode(op.ID, op.Props)
	case workloads.OpObjDel:
		a.err = s.DeleteNode(op.ID)
	case workloads.OpAssocDel:
		a.n, a.err = s.DeleteEdges(op.Edge.Src, op.Edge.Type, op.Edge.Dst)
	case workloads.OpAssocUpdate:
		if a.n, a.err = s.DeleteEdges(op.Edge.Src, op.Edge.Type, op.Edge.Dst); a.err == nil {
			a.err = s.AppendEdge(op.Edge)
		}
	default:
		a.err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return a
}

// appendTo renders the answer canonically: ok flag, values, edges with
// their properties in key order (empty values dropped, as the data model
// treats them as absent), and the count. Any error renders as "error",
// so a failed call never matches the reference.
func (a *answer) appendTo(b []byte) []byte {
	if a.err != nil {
		return append(b, "error"...)
	}
	b = append(b, "ok="...)
	b = strconv.AppendBool(b, a.ok)
	b = append(b, " n="...)
	b = strconv.AppendInt(b, int64(a.n), 10)
	b = append(b, " vals="...)
	for _, v := range a.vals {
		b = strconv.AppendQuote(b, v)
		b = append(b, ',')
	}
	b = append(b, " edges="...)
	b = strconv.AppendInt(b, int64(len(a.edges)), 10)
	var keys []string
	for _, e := range a.edges {
		b = append(b, " {"...)
		b = strconv.AppendInt(b, e.Dst, 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, e.Timestamp, 10)
		keys = keys[:0]
		for k, v := range e.Props {
			if v != "" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, ' ')
			b = append(b, k...)
			b = append(b, '=')
			b = strconv.AppendQuote(b, e.Props[k])
		}
		b = append(b, '}')
	}
	return b
}

// describeOp renders an op for a mismatch report.
func describeOp(op *workloads.Op) string {
	switch op.Kind {
	case workloads.OpAssocAdd, workloads.OpAssocUpdate, workloads.OpAssocDel:
		return fmt.Sprintf("%s(src=%d type=%d dst=%d ts=%d)", op.Kind, op.Edge.Src, op.Edge.Type, op.Edge.Dst, op.Edge.Timestamp)
	case workloads.OpObjGet, workloads.OpObjAdd, workloads.OpObjUpdate, workloads.OpObjDel:
		return fmt.Sprintf("%s(id=%d)", op.Kind, op.ID)
	}
	return fmt.Sprintf("%s(id=%d type=%d idx=%d limit=%d lo=%d hi=%d)", op.Kind, op.ID, op.AType, op.Idx, op.Limit, op.Lo, op.Hi)
}

// phaseStats are one client's measurements over one timed phase.
type phaseStats struct {
	lat    []time.Duration
	kinds  []workloads.OpKind
	failed int64
}

// clientRun is one closed-loop client: its op sequence, and the digest of
// every answer it received, in order. Op i is ops[i%len(ops)]: a client
// that runs out of ops starts the sequence again.
type clientRun struct {
	ops     []workloads.Op
	digests []uint64
	buf     []byte
	h       hash.Hash64
}

func newClientRun(ops []workloads.Op) *clientRun {
	return &clientRun{ops: ops, h: fnv.New64a()}
}

// next returns the op the client sends next.
func (r *clientRun) next() *workloads.Op { return &r.ops[len(r.digests)%len(r.ops)] }

// digest hashes an answer's canonical rendering.
func (r *clientRun) digest(a *answer) uint64 {
	r.buf = a.appendTo(r.buf[:0])
	r.h.Reset()
	r.h.Write(r.buf)
	return r.h.Sum64()
}

// step sends the next op to s, records its answer digest and returns the
// op, its latency and its error.
func (r *clientRun) step(s graphapi.Store) (*workloads.Op, time.Duration, error) {
	op := r.next()
	start := time.Now()
	a := call(s, op)
	lat := time.Since(start)
	r.digests = append(r.digests, r.digest(&a))
	return op, lat, a.err
}

// runUntil sends ops back to back until end. st, if non-nil, receives
// every call's latency; after, if non-nil, runs after every call,
// outside the timed region.
func (r *clientRun) runUntil(s graphapi.Store, end time.Time, st *phaseStats, after func()) {
	for time.Now().Before(end) {
		op, lat, err := r.step(s)
		if st != nil {
			st.lat = append(st.lat, lat)
			st.kinds = append(st.kinds, op.Kind)
			if err != nil {
				st.failed++
			}
		}
		if after != nil {
			after()
		}
	}
}
