package temporal_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"zipg"
	"zipg/internal/layout"
	"zipg/internal/store"
	"zipg/internal/temporal"
)

func buildSubGraph(t testing.TB, nNodes, shards int) *zipg.Graph {
	t.Helper()
	nodes := make([]layout.Node, nNodes)
	for i := range nodes {
		nodes[i] = layout.Node{ID: int64(i), Props: map[string]string{"name": fmt.Sprintf("n%d", i)}}
	}
	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes},
		zipg.Options{NumShards: shards, SamplingRate: 8, LogStoreThreshold: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSubscriptionGapFree hammers the group-committed write path from
// 16 concurrent writers (appends, deletes, node rewrites) while a
// firehose subscriber drains, and asserts the delivered events carry
// gap-free, monotone per-partition sequence numbers covering every
// mutation — the proof that the live tail loses nothing. Run under
// -race in CI.
func TestSubscriptionGapFree(t *testing.T) {
	g := buildSubGraph(t, 32, 4)
	defer g.Close()
	const writers, perWriter = 16, 120
	sub := g.Subscribe(zipg.SubscriptionFilter{}, writers*perWriter+64)
	defer sub.Close()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := int64(1000 + w)
			for i := 0; i < perWriter; i++ {
				var err error
				switch i % 8 {
				case 6:
					_, err = g.DeleteEdges(src, 1, int64(i%32))
				case 7:
					err = g.AppendNode(src, map[string]string{"name": fmt.Sprintf("w%d-%d", w, i)})
				default:
					err = g.AppendEdge(zipg.Edge{Src: src, Dst: int64(i % 32), Type: 1, Timestamp: int64(i + 1)})
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}

	// AppendEdge may auto-create endpoint nodes (extra EvNodePut
	// events), so the op count only bounds the event count from below.
	// The consumer drains until the writers are done and every
	// partition's last delivered seq has caught up with the store's own
	// counter, polling with a short per-Next timeout so it notices both.
	st := g.Store()
	writersDone := make(chan struct{})
	delivered := 0
	lastSeq := map[int]uint64{}
	caughtUp := func() bool {
		select {
		case <-writersDone:
		default:
			return false
		}
		for part := 0; part < st.NumPartitions(); part++ {
			if lastSeq[part] != st.LastSeq(part) {
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(30 * time.Second)
		for !caughtUp() && time.Now().Before(deadline) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			evs, err := sub.Next(ctx, 256)
			cancel()
			if err == nil && evs == nil {
				return // subscription closed
			}
			if err != nil && ctx.Err() == nil {
				t.Errorf("Next: %v", err)
				return
			}
			for _, ev := range evs {
				delivered++
				if last, ok := lastSeq[ev.Part]; ok && ev.Seq != last+1 {
					t.Errorf("partition %d: seq %d after %d (gap)", ev.Part, ev.Seq, last)
					return
				}
				lastSeq[ev.Part] = ev.Seq
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-done
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// With a big ring nothing may be dropped, every op yields at least
	// one event, and every partition's tail must line up with the
	// store's own sequence counter.
	if delivered < writers*perWriter {
		t.Fatalf("delivered %d events, want >= %d", delivered, writers*perWriter)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("dropped %d events with an oversized ring", d)
	}
	for part, last := range lastSeq {
		if want := st.LastSeq(part); last != want {
			t.Fatalf("partition %d: consumer saw last seq %d, store at %d", part, last, want)
		}
	}
}

// TestCatchupMatchesLiveTail: replaying Catchup(sinceSeq=0) must yield
// exactly the events a from-the-start live subscriber saw, per
// partition — including delete tombstones.
func TestCatchupMatchesLiveTail(t *testing.T) {
	g := buildSubGraph(t, 16, 2)
	defer g.Close()
	eng := g.Temporal()
	sub := eng.Subscribe(temporal.Filter{}, 4096)
	defer sub.Close()

	for i := 0; i < 40; i++ {
		if err := g.AppendEdge(zipg.Edge{Src: int64(i % 8), Dst: int64(8 + i%8), Type: 2, Timestamp: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.DeleteEdges(3, 2, 11); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteNode(5); err != nil {
		t.Fatal(err)
	}
	if err := g.AppendNode(7, map[string]string{"name": "rewritten"}); err != nil {
		t.Fatal(err)
	}

	live := map[int][]store.Event{}
	for _, ev := range sub.Poll(0) {
		live[ev.Part] = append(live[ev.Part], ev)
	}
	sawNodeDel, sawEdgeDel := false, false
	for part := 0; part < g.Store().NumPartitions(); part++ {
		replay, ok := eng.Catchup(part, 0, temporal.Filter{})
		if !ok {
			t.Fatalf("partition %d: tail evicted past seq 0", part)
		}
		if len(replay) != len(live[part]) {
			t.Fatalf("partition %d: catchup %d events, live %d", part, len(replay), len(live[part]))
		}
		for i, ev := range replay {
			lv := live[part][i]
			if ev.Seq != lv.Seq || ev.Kind != lv.Kind || ev.Node != lv.Node ||
				ev.Edge.Src != lv.Edge.Src || ev.Edge.Dst != lv.Edge.Dst ||
				ev.Edge.Type != lv.Edge.Type || ev.Edge.Timestamp != lv.Edge.Timestamp {
				t.Fatalf("partition %d event %d: catchup %+v != live %+v", part, i, ev, lv)
			}
			switch ev.Kind {
			case store.EvNodeDel:
				sawNodeDel = true
			case store.EvEdgeDel:
				sawEdgeDel = true
			}
		}
	}
	if !sawNodeDel || !sawEdgeDel {
		t.Fatalf("tombstones missing from replay: nodeDel=%v edgeDel=%v", sawNodeDel, sawEdgeDel)
	}
}

// TestCatchupPartial: sinceSeq resumes mid-stream.
func TestCatchupPartial(t *testing.T) {
	g := buildSubGraph(t, 4, 1)
	defer g.Close()
	eng := g.Temporal()
	for i := 0; i < 10; i++ {
		if err := g.AppendNode(int64(i%4), map[string]string{"name": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	evs, ok := eng.Catchup(0, 6, temporal.Filter{})
	if !ok {
		t.Fatal("tail evicted unexpectedly")
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("Catchup(0, 6) = %d events, first seq %d", len(evs), evs[0].Seq)
	}
	// sinceSeq at or beyond the stream head: nothing to replay, and it
	// must not fabricate events.
	if evs, _ := eng.Catchup(0, 99, temporal.Filter{}); len(evs) != 0 {
		t.Fatalf("Catchup past head returned %d events", len(evs))
	}
}

// TestSubscriptionDropOldest: a tiny ring under more events than it
// holds keeps the NEWEST events and counts the discarded ones.
func TestSubscriptionDropOldest(t *testing.T) {
	g := buildSubGraph(t, 4, 1)
	defer g.Close()
	sub := g.Subscribe(zipg.SubscriptionFilter{}, 4)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		if err := g.AppendNode(int64(i%4), map[string]string{"name": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	evs := sub.Poll(0)
	if len(evs) != 4 {
		t.Fatalf("Poll returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (drop-oldest must keep the newest)", i, ev.Seq, want)
		}
	}
	if d := sub.Dropped(); d != 6 {
		t.Fatalf("Dropped() = %d, want 6", d)
	}
}

// TestSubscriptionFilters: node and type filters select the right
// events, including edge events matching by destination.
func TestSubscriptionFilters(t *testing.T) {
	g := buildSubGraph(t, 8, 2)
	defer g.Close()
	nodeSub := g.Subscribe(temporal.FilterNode(3), 64)
	defer nodeSub.Close()
	typeSub := g.Subscribe(temporal.FilterType(9), 64)
	defer typeSub.Close()

	writes := []func() error{
		func() error { return g.AppendEdge(zipg.Edge{Src: 3, Dst: 1, Type: 9, Timestamp: 1}) }, // both
		func() error { return g.AppendEdge(zipg.Edge{Src: 2, Dst: 3, Type: 5, Timestamp: 2}) }, // node (dst)
		func() error { return g.AppendEdge(zipg.Edge{Src: 6, Dst: 7, Type: 9, Timestamp: 3}) }, // type
		func() error { return g.AppendNode(3, map[string]string{"name": "x"}) },                // node
		func() error { return g.AppendNode(4, map[string]string{"name": "y"}) },                // neither
	}
	for _, w := range writes {
		if err := w(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(nodeSub.Poll(0)); got != 3 {
		t.Fatalf("node filter delivered %d events, want 3", got)
	}
	tevs := typeSub.Poll(0)
	if len(tevs) != 2 {
		t.Fatalf("type filter delivered %d events, want 2", len(tevs))
	}
	for _, ev := range tevs {
		if ev.Edge.Type != 9 {
			t.Fatalf("type filter passed edge type %d", ev.Edge.Type)
		}
	}
}

// TestNextUnblocksOnClose: a blocked Next returns promptly when the
// subscription closes.
func TestNextUnblocksOnClose(t *testing.T) {
	g := buildSubGraph(t, 4, 1)
	defer g.Close()
	sub := g.Subscribe(zipg.SubscriptionFilter{}, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		evs, err := sub.Next(context.Background(), 0)
		if err != nil || evs != nil {
			t.Errorf("Next after Close = (%v, %v), want (nil, nil)", evs, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}
