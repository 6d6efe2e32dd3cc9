package main

import (
	"fmt"

	"zipg"
	"zipg/internal/refgraph"
)

// mismatch is the first op whose answer differs from the reference's.
type mismatch struct {
	client, index int
	op            string
	want          string
	got           string // from a sequential re-run on a fresh system
	gotDigest     uint64 // from the timed run
	rerunAgrees   bool   // the re-run's digest equals the timed run's
}

func (m *mismatch) Error() string {
	return fmt.Sprintf("answer mismatch: client %d op %d %s\n  want: %s\n  got:  %s\n  (got is from a sequential re-run on a fresh system; its digest equals the timed run's: %v)",
		m.client, m.index, m.op, m.want, m.got, m.rerunAgrees)
}

// checkAnswers replays, untimed and in order, every op each client ran
// on internal/refgraph built from the same data, and compares the
// digest of every answer with the one the client recorded. Clients
// touch disjoint node sets, so replaying them one after another gives
// each the answers of its own sequential run. It returns the first
// mismatch, or nil.
func checkAnswers(data zipg.GraphData, runs []*clientRun) *mismatch {
	ref := refgraph.New(data.Nodes, data.Edges)
	for c, r := range runs {
		replay := newClientRun(r.ops)
		for i, got := range r.digests {
			op := replay.next()
			a := call(ref, op)
			if replay.digest(&a) != got {
				return &mismatch{client: c, index: i, op: describeOp(op), want: string(a.appendTo(nil)), gotDigest: got}
			}
			replay.digests = append(replay.digests, got)
		}
	}
	return nil
}

// explain fills in the got side of m by building a fresh system and
// replaying the client's ops up to the diverging one, sequentially.
func (m *mismatch) explain(w *workload, data zipg.GraphData, runs []*clientRun) {
	sys, err := w.build(data)
	if err != nil {
		m.got = fmt.Sprintf("(re-run failed: %v)", err)
		return
	}
	defer sys.close()
	r := newClientRun(runs[m.client].ops)
	var a answer
	for i := 0; i <= m.index; i++ {
		op := r.next()
		a = call(sys.stores[0], op)
		r.digests = append(r.digests, r.digest(&a))
	}
	m.got = string(a.appendTo(nil))
	m.rerunAgrees = r.digests[m.index] == m.gotDigest
}
