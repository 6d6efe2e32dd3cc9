package main

import (
	"strings"
	"sync"
	"testing"

	"zipg"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/telemetry"
)

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// setup generates a workload's data and builds its system.
func setup(t *testing.T, w *workload) (*gen.Dataset, zipg.GraphData, *system) {
	t.Helper()
	d, err := w.generate()
	if err != nil {
		t.Fatal(err)
	}
	data := zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}
	sys, err := w.build(data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	return d, data, sys
}

func newRuns(d *gen.Dataset, w *workload, seed int64, n int) []*clientRun {
	runs := make([]*clientRun, numClients)
	for c := range runs {
		runs[c] = newClientRun(clientOps(d, w, seed, c, n))
	}
	return runs
}

// plantedStore returns a wrong answer for the k-th GetNodeProperty call.
type plantedStore struct {
	graphapi.Store
	k, calls int
	fired    bool
}

func (s *plantedStore) GetNodeProperty(id graphapi.NodeID, pids []string) ([]string, bool) {
	vals, ok := s.Store.GetNodeProperty(id, pids)
	if s.calls++; s.calls == s.k {
		s.fired = true
		vals = append(vals, "planted")
	}
	return vals, ok
}

func TestCheckerFailsOnPlantedWrongAnswer(t *testing.T) {
	w := mustWorkload(t, "linkbench-local")
	d, data, sys := setup(t, w)
	runs := newRuns(d, w, 3, 2000)
	planted := &plantedStore{Store: sys.stores[1], k: 40}
	plantedAt := -1
	for i := 0; i < 2000; i++ {
		runs[0].step(sys.stores[0])
		runs[1].step(planted)
		if planted.fired && plantedAt < 0 {
			plantedAt = len(runs[1].digests) - 1
		}
	}
	if plantedAt < 0 {
		t.Fatal("the plant never fired")
	}
	m := checkAnswers(data, runs)
	if m == nil {
		t.Fatal("checker accepted a run with a planted wrong answer")
	}
	if m.client != 1 || m.index != plantedAt {
		t.Fatalf("checker reported client %d op %d, planted at client 1 op %d", m.client, m.index, plantedAt)
	}
	m.explain(w, data, runs)
	if !strings.Contains(m.Error(), m.want) || m.rerunAgrees {
		t.Fatalf("report does not show the diverging answers:\n%v", m)
	}
	if !strings.Contains(m.Error(), "obj_get") {
		t.Fatalf("report does not name the op:\n%v", m)
	}
}

// TestInterleavingsGiveSameDigests runs the same per-client ops in three
// orders: one client after the other, strictly alternating, and
// concurrently. Every order must give each client the same answers, and
// those must be the reference's.
func TestInterleavingsGiveSameDigests(t *testing.T) {
	const n = 3000
	orders := map[string]func(sys *system, runs []*clientRun){
		"sequential": func(sys *system, runs []*clientRun) {
			for c := len(runs) - 1; c >= 0; c-- {
				for i := 0; i < n; i++ {
					runs[c].step(sys.stores[c])
				}
			}
		},
		"alternating": func(sys *system, runs []*clientRun) {
			for i := 0; i < n; i++ {
				for c, r := range runs {
					r.step(sys.stores[c])
				}
			}
		},
		"concurrent": func(sys *system, runs []*clientRun) {
			var wg sync.WaitGroup
			for c, r := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						r.step(sys.stores[c])
					}
				}()
			}
			wg.Wait()
		},
	}
	var first [][]uint64
	for name, order := range orders {
		w := mustWorkload(t, "linkbench-local")
		d, data, sys := setup(t, w)
		runs := newRuns(d, w, 11, n)
		order(sys, runs)
		if m := checkAnswers(data, runs); m != nil {
			m.explain(w, data, runs)
			t.Fatalf("%s: %v", name, m)
		}
		if first == nil {
			for _, r := range runs {
				first = append(first, r.digests)
			}
			continue
		}
		for c, r := range runs {
			for i := range r.digests {
				if r.digests[i] != first[c][i] {
					t.Fatalf("%s: client %d op %d digest differs from the first order's", name, c, i)
				}
			}
		}
	}
}

// TestWorkCountersRepeat runs one client with a fixed seed twice per
// workload and requires identical succinct and LogStore work counts.
// Compaction on a wall-clock timer does work that depends on when it
// fires, so the timer is off here; 3,000 ops stay below the first log
// rollover.
func TestWorkCountersRepeat(t *testing.T) {
	wasOn := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(wasOn)
	for _, w := range allWorkloads {
		if w.local != nil {
			untimed, opts := *w, *w.local
			opts.CompactInterval = 0
			untimed.local = &opts
			w = &untimed
		}
		var counts []telemetry.Snapshot
		for rep := 0; rep < 2; rep++ {
			d, _, sys := setup(t, w)
			r := newClientRun(clientOps(d, w, 5, 0, 3000))
			before := telemetry.TakeSnapshot()
			for i := 0; i < 3000; i++ {
				r.step(sys.stores[0])
			}
			delta := telemetry.Delta(before, telemetry.TakeSnapshot())
			// The counters are process-wide: stop this system's
			// background compaction before the next one is measured.
			sys.close()
			work := telemetry.Snapshot{}
			for k, v := range delta {
				if strings.HasPrefix(k, "zipg_succinct_") || strings.HasPrefix(k, "zipg_logstore_") {
					work[k] = v
				}
			}
			counts = append(counts, work)
		}
		if counts[0]["zipg_succinct_psi_steps_total"] == 0 {
			t.Fatalf("%s: no succinct work counted", w.name)
		}
		if len(counts[0]) != len(counts[1]) {
			t.Fatalf("%s: counter sets differ: %v vs %v", w.name, counts[0], counts[1])
		}
		for k, v := range counts[0] {
			if counts[1][k] != v {
				t.Errorf("%s: %s = %v, then %v", w.name, k, v, counts[1][k])
			}
		}
	}
}

// TestNoTimestampTies checks that no (source, type) record of the
// generated graphs holds two edges with one timestamp, so that the tie
// rule of clientOps covers every record.
func TestNoTimestampTies(t *testing.T) {
	for _, w := range allWorkloads {
		d, err := w.generate()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[3]int64]bool{}
		for _, e := range d.Edges {
			k := [3]int64{e.Src, e.Type, e.Timestamp}
			if seen[k] {
				t.Errorf("%s: two edges of (%d, %d) at %d", w.name, e.Src, e.Type, e.Timestamp)
			}
			seen[k] = true
		}
	}
}
