package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// TestGroupCommitEquivalence drives identical write mixes through the
// group-committed path and the per-record-lock path and checks the
// stores answer identically: group commit is a concurrency-control
// change, not a semantics change.
func TestGroupCommitEquivalence(t *testing.T) {
	run := func(disable bool) *Store {
		ns, es := testSchemas(t)
		nodes, edges := testGraph(30, 120, 2)
		s, err := New(nodes, edges, ns, es, Config{
			NumShards: 3, SamplingRate: 8, LogStoreThreshold: 3000,
			DisableGroupCommit: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if err := s.AppendEdge(layout.Edge{Src: int64(i % 7), Dst: int64(400 + i), Type: 1, Timestamp: int64(50000 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AppendNode(5, map[string]string{"name": "rewritten"}); err != nil {
			t.Fatal(err)
		}
		s.DeleteEdges(edges[3].Src, edges[3].Type, edges[3].Dst)
		s.DeleteNode(11)
		return s
	}
	grouped, perRecord := run(false), run(true)
	for id := int64(0); id < 30; id++ {
		gv, gok := grouped.GetNodeProps(id, nil)
		pv, pok := perRecord.GetNodeProps(id, nil)
		if gok != pok || !reflect.DeepEqual(gv, pv) {
			t.Fatalf("node %d: grouped (%v,%v) != per-record (%v,%v)", id, gv, gok, pv, pok)
		}
	}
	for src := int64(0); src < 10; src++ {
		for ty := int64(0); ty < 3; ty++ {
			gn := grouped.NeighborIDs(src, ty, nil)
			pn := perRecord.NeighborIDs(src, ty, nil)
			if !reflect.DeepEqual(gn, pn) {
				t.Fatalf("neighbors(%d,%d): grouped %v != per-record %v", src, ty, gn, pn)
			}
		}
	}
}

// TestGroupCommitConcurrentWriters hammers the group committer from
// many goroutines and verifies nothing is lost or misattributed.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 40, 3)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := int64(1000 + g)
			for i := 0; i < perWriter; i++ {
				if err := s.AppendEdge(layout.Edge{Src: src, Dst: int64(2000 + i), Type: 2, Timestamp: int64(i + 1)}); err != nil {
					t.Error(err)
					return
				}
				if err := s.AppendNode(int64(3000+g*perWriter+i), map[string]string{"name": fmt.Sprintf("w%d-%d", g, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		rec, ok := s.GetEdgeRecord(int64(1000+g), 2)
		if !ok || rec.Count() != perWriter {
			t.Fatalf("writer %d: edge count = %v (ok=%v), want %d", g, rec, ok, perWriter)
		}
		for i := 0; i < perWriter; i++ {
			id := int64(3000 + g*perWriter + i)
			vals, ok := s.GetNodeProps(id, []string{"name"})
			if !ok || vals[0] != fmt.Sprintf("w%d-%d", g, i) {
				t.Fatalf("node %d = %v (ok=%v)", id, vals, ok)
			}
		}
	}
}

// mutateForCompact applies a fixed mutation sequence that fragments the
// store across several generations.
func mutateForCompact(t *testing.T, s *Store, edges []layout.Edge) {
	t.Helper()
	for i := 0; i < 150; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 8), Dst: int64(300 + i), Type: 0, Timestamp: int64(100000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(3, map[string]string{"name": "updated", "location": "Chicago"}); err != nil {
		t.Fatal(err)
	}
	s.DeleteNode(9)
	s.DeleteEdges(edges[0].Src, edges[0].Type, edges[0].Dst)
	s.DeleteEdges(2, 0, 302)
}

// TestCompactDeterminism locks the determinism of compaction's
// materialize pass: two stores given identical histories must compact
// to byte-identical primary shards.
func TestCompactDeterminism(t *testing.T) {
	build := func() *Store {
		ns, es := testSchemas(t)
		nodes, edges := testGraph(25, 100, 4)
		s, err := New(nodes, edges, ns, es, Config{
			NumShards: 3, SamplingRate: 8, LogStoreThreshold: 2500,
		})
		if err != nil {
			t.Fatal(err)
		}
		mutateForCompact(t, s, edges)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	if len(a.primaries) != len(b.primaries) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.primaries), len(b.primaries))
	}
	for p := range a.primaries {
		ab, err := a.primaries[p].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.primaries[p].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("shard %d: serialized bytes differ across identical rebuilds (%d vs %d bytes)", p, len(ab), len(bb))
		}
	}
}

// TestSealedRawGeneration exercises every read path against a sealed
// raw generation (the state between an O(1) rollover and its
// background compression), then compresses it and checks answers are
// unchanged.
func TestSealedRawGeneration(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 60, 5)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 4), Dst: int64(500 + i), Type: 1, Timestamp: int64(9000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(7, map[string]string{"name": "sealed-era", "age": "99"}); err != nil {
		t.Fatal(err)
	}
	// Seal the live log by hand (what a background-mode rollover does).
	s.mu.Lock()
	s.sealLogLocked()
	s.mu.Unlock()

	check := func(phase string) {
		t.Helper()
		vals, ok := s.GetNodeProps(7, []string{"name", "age"})
		if !ok || vals[0] != "sealed-era" || vals[1] != "99" {
			t.Fatalf("%s: node 7 = %v (ok=%v)", phase, vals, ok)
		}
		rec, ok := s.GetEdgeRecord(2, 1)
		if !ok {
			t.Fatalf("%s: edge record (2,1) missing", phase)
		}
		want := 0
		for _, e := range edges {
			if e.Src == 2 && e.Type == 1 {
				want++
			}
		}
		for i := 0; i < 40; i++ {
			if i%4 == 2 {
				want++
			}
		}
		if rec.Count() != want {
			t.Fatalf("%s: edge count (2,1) = %d, want %d", phase, rec.Count(), want)
		}
		found := s.FindNodes(map[string]string{"name": "sealed-era"})
		if len(found) != 1 || found[0] != 7 {
			t.Fatalf("%s: FindNodes = %v", phase, found)
		}
	}
	check("raw")

	// Deletes against the sealed generation tombstone, not mutate.
	if n := s.DeleteEdges(3, 1, 503); n != 1 {
		t.Fatalf("delete against sealed gen removed %d, want 1", n)
	}
	recAfterDel, ok := s.GetEdgeRecord(3, 1)
	if !ok {
		t.Fatal("edge record (3,1) missing after tombstone")
	}
	delCount := recAfterDel.Count()

	// Persistence round-trips raw generations.
	blob, err := s.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := loaded.GetEdgeRecord(3, 1); !ok || rec.Count() != delCount {
		t.Fatalf("loaded store edge count (3,1) = %v, want %d", rec, delCount)
	}

	// Background compression must preserve answers and carry the
	// tombstone over as a deletion mark.
	if !s.compressOnePending() {
		t.Fatal("compressOnePending found nothing to compress")
	}
	s.mu.RLock()
	for g, f := range s.frozen {
		if f.raw != nil {
			t.Fatalf("generation %d still raw after compression", g)
		}
	}
	s.mu.RUnlock()
	check("compressed")
	if rec, ok := s.GetEdgeRecord(3, 1); !ok || rec.Count() != delCount {
		t.Fatalf("post-compression edge count (3,1) = %v, want %d", rec, delCount)
	}
}

// TestWritesRacingCompaction is the online-compaction torture test: 16
// goroutines append and delete continuously while Compact runs in a
// loop. Run under -race this doubles as the memory-model check for the
// snapshot/swap protocol. After quiescing, no write may be lost and a
// final compaction must leave every node whole (FragmentsOf == 1).
func TestWritesRacingCompaction(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(30, 100, 6)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: 8, LogStoreThreshold: 4000})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	perWriter := 120
	if testing.Short() {
		perWriter = 50
	}
	stop := make(chan struct{})
	var compactions int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // compaction loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
			compactions++
			time.Sleep(time.Millisecond)
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			src := int64(5000 + g)
			for i := 0; i < perWriter; i++ {
				e := layout.Edge{Src: src, Dst: int64(6000 + i), Type: 3, Timestamp: int64(i + 1)}
				if err := s.AppendEdge(e); err != nil {
					t.Error(err)
					return
				}
				// Delete every fifth edge right after appending it: the
				// delete frequently lands mid-rebuild and must be
				// replayed at swap, not resurrected.
				if i%5 == 0 {
					if n := s.DeleteEdges(src, 3, e.Dst); n == 0 {
						t.Errorf("writer %d: delete of fresh edge (dst %d) removed nothing", g, e.Dst)
						return
					}
				}
				if err := s.AppendNode(int64(9000+g*perWriter+i), map[string]string{"name": fmt.Sprintf("r%d-%d", g, i)}); err != nil {
					t.Error(err)
					return
				}
				// Concurrent readers on the same keys keep the read
				// paths honest against swaps.
				if i%7 == 0 {
					s.GetNodeProps(src, nil)
					s.NeighborIDs(src, 3, nil)
				}
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	if compactions == 0 {
		t.Fatal("compaction loop never ran")
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// No lost writes, no resurrected deletes.
	for g := 0; g < writers; g++ {
		src := int64(5000 + g)
		var want []int64
		for i := 0; i < perWriter; i++ {
			if i%5 != 0 {
				want = append(want, int64(6000+i))
			}
		}
		got := s.NeighborIDs(src, 3, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("writer %d: neighbors = %d ids, want %d (first diff: %v)", g, len(got), len(want), firstDiff(got, want))
		}
		for i := 0; i < perWriter; i++ {
			id := int64(9000 + g*perWriter + i)
			if vals, ok := s.GetNodeProps(id, []string{"name"}); !ok || vals[0] != fmt.Sprintf("r%d-%d", g, i) {
				t.Fatalf("node %d = %v (ok=%v)", id, vals, ok)
			}
		}
	}
	// Every node whole again after the quiesced compaction.
	for _, n := range nodes {
		if f := s.FragmentsOf(n.ID); f != 1 {
			t.Fatalf("FragmentsOf(%d) = %d after quiesced compaction, want 1", n.ID, f)
		}
	}
	for g := 0; g < writers; g++ {
		if f := s.FragmentsOf(int64(5000 + g)); f != 1 {
			t.Fatalf("FragmentsOf(%d) = %d after quiesced compaction, want 1", 5000+g, f)
		}
	}
	_ = edges
}

func firstDiff(got, want []int64) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("index %d: got %d want %d", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length: got %d want %d", len(got), len(want))
}

// TestBackgroundCompaction runs the worker end to end: small threshold
// forces O(1) seals, the rollover trigger forces full compactions, and
// after quiescing every answer must match the slow-path store.
func TestBackgroundCompaction(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, _ := testGraph(20, 50, 7)
	s, err := New(nodes, nil, ns, es, Config{
		NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1500,
		CompactAfterRollovers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.bg == nil {
		t.Fatal("background worker not started")
	}
	for i := 0; i < 300; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 5), Dst: int64(700 + i), Type: 0, Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rollovers() == 0 {
		t.Fatal("no rollover despite tiny threshold")
	}
	// Quiesce: wait for the worker to drain raw generations and fire
	// any pending compaction trigger.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.RLock()
		raw := 0
		for _, f := range s.frozen {
			if f.raw != nil {
				raw++
			}
		}
		pending := s.rolloversSinceCompact
		s.mu.RUnlock()
		if raw == 0 && pending < 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker did not quiesce: %d raw gens, %d rollovers pending", raw, pending)
		}
		s.bg.kick()
		time.Sleep(10 * time.Millisecond)
	}
	for src := int64(0); src < 5; src++ {
		rec, ok := s.GetEdgeRecord(src, 0)
		want := 60
		if !ok || rec.Count() != want {
			t.Fatalf("src %d: count = %v (ok=%v), want %d", src, rec, ok, want)
		}
	}
	for _, n := range nodes {
		if vals, ok := s.GetNodeProps(n.ID, []string{"name"}); !ok || vals[0] != n.Props["name"] {
			t.Fatalf("node %d = %v (ok=%v)", n.ID, vals, ok)
		}
	}
}

// TestWritePathMetricNames locks the write-path and online-compaction
// metric names into the default registry's exposition so renames fail
// CI (same style as telemetry's TestTraceMetricNames).
func TestWritePathMetricNames(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	// Touch the series so histograms register non-trivially.
	mGroupBatches.Inc()
	mGroupRecords.Add(2)
	mWriteStallNs.Observe(1)
	mCompactionPauseNs.Observe(1)
	expo := telemetry.Default.Expose()
	for _, want := range []string{
		"zipg_group_commit_batches_total",
		"zipg_group_commit_records_total",
		"zipg_write_stall_ns",
		"zipg_compaction_pause_ns",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
