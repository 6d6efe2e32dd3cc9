package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with telemetry on, restoring the prior state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	f()
}

// TestConcurrentExactTotals hammers a counter, gauge, histogram and the
// span ring from 32 goroutines and asserts exact totals — the -race
// gate for the lock-free paths.
func TestConcurrentExactTotals(t *testing.T) {
	withEnabled(t, func() {
		prev := SetSpanSampling(1) // exact span totals need every query traced
		defer SetSpanSampling(prev)
		ResetSpans()
		r := &Registry{}
		c := r.NewCounterL("t_ops_total", "", "")
		g := r.NewGauge("t_inflight", "")
		h := r.NewHistogramL("t_latency_ns", "", "")

		const goroutines = 32
		const perG = 2000
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for j := 0; j < perG; j++ {
					c.Add(2)
					g.Inc()
					h.Observe(int64(seed*perG + j))
					sp := StartSpan("t.op")
					sp.AddShard(seed)
					sp.AddBytes(1)
					sp.End()
					g.Dec()
				}
			}(i)
		}
		wg.Wait()

		if got, want := c.Value(), int64(goroutines*perG*2); got != want {
			t.Errorf("counter = %d, want %d", got, want)
		}
		if got := g.Value(); got != 0 {
			t.Errorf("gauge = %d, want 0", got)
		}
		if got, want := h.Count(), int64(goroutines*perG); got != want {
			t.Errorf("histogram count = %d, want %d", got, want)
		}
		// Sum of 0..N-1 observations (negative-clamped values absent).
		n := int64(goroutines * perG)
		if got, want := h.Sum(), n*(n-1)/2; got != want {
			t.Errorf("histogram sum = %d, want %d", got, want)
		}
		if got, want := SpanTotal(), int64(goroutines*perG); got != want {
			t.Errorf("span total = %d, want %d", got, want)
		}
		if got := len(RecentSpans(0)); got != spanRingSize {
			t.Errorf("ring holds %d spans, want %d", got, spanRingSize)
		}
	})
}

// TestDisabledRecordsNothing verifies the atomic gate: no counter or
// histogram movement, no spans, zero Timers.
func TestDisabledRecordsNothing(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	ResetSpans()
	r := &Registry{}
	c := r.NewCounterL("t_off_total", "", "")
	h := r.NewHistogramL("t_off_ns", "", "")
	c.Inc()
	h.Observe(100)
	if sp := StartSpan("t.off"); sp != nil {
		t.Error("StartSpan should return nil while disabled")
	}
	if tm := StartTimer(); !tm.start.IsZero() {
		t.Error("StartTimer should return a zero Timer while disabled")
	}
	if c.Value() != 0 || h.Count() != 0 || SpanTotal() != 0 {
		t.Errorf("disabled telemetry recorded: counter=%d hist=%d spans=%d",
			c.Value(), h.Count(), SpanTotal())
	}
	// Nil-safe span methods must not panic.
	var sp *Span
	sp.AddShard(1)
	sp.MarkLogStore()
	sp.SetFanout(1, 2, 3)
	sp.AddBytes(4)
	sp.End()
}

// TestExpositionGolden locks down the Prometheus text format byte for
// byte over a registry with one of each metric kind.
func TestExpositionGolden(t *testing.T) {
	withEnabled(t, func() {
		r := &Registry{}
		reqs := r.NewCounterL("zipg_requests_total", `op="get"`, "Requests served.")
		reqsPut := r.NewCounterL("zipg_requests_total", `op="put"`, "Requests served.")
		inflight := r.NewGauge("zipg_inflight", "In-flight requests.")
		lat := r.NewHistogramL("zipg_latency_ns", "", "Request latency.")

		reqs.Add(5)
		reqsPut.Add(2)
		inflight.Set(3)
		lat.Observe(1)   // bucket le=1
		lat.Observe(3)   // bucket le=4
		lat.Observe(100) // bucket le=128
		lat.Observe(100)

		want := strings.Join([]string{
			`# HELP zipg_inflight In-flight requests.`,
			`# TYPE zipg_inflight gauge`,
			`zipg_inflight 3`,
			`# HELP zipg_latency_ns Request latency.`,
			`# TYPE zipg_latency_ns histogram`,
			`zipg_latency_ns_bucket{le="1"} 1`,
			`zipg_latency_ns_bucket{le="4"} 2`,
			`zipg_latency_ns_bucket{le="128"} 4`,
			`zipg_latency_ns_bucket{le="+Inf"} 4`,
			`zipg_latency_ns_sum 204`,
			`zipg_latency_ns_count 4`,
			`# HELP zipg_requests_total Requests served.`,
			`# TYPE zipg_requests_total counter`,
			`zipg_requests_total{op="get"} 5`,
			`zipg_requests_total{op="put"} 2`,
		}, "\n") + "\n"
		if got := r.Expose(); got != want {
			t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
}

func TestHistogramQuantiles(t *testing.T) {
	withEnabled(t, func() {
		r := &Registry{}
		h := r.NewHistogramL("t_q_ns", "", "")
		// 100 observations: 90 fast (<=64), 10 slow (<=4096).
		for i := 0; i < 90; i++ {
			h.Observe(50)
		}
		for i := 0; i < 10; i++ {
			h.Observe(4000)
		}
		if p := h.P50(); p != 64 {
			t.Errorf("p50 = %d, want 64", p)
		}
		if p := h.P95(); p != 4096 {
			t.Errorf("p95 = %d, want 4096", p)
		}
		if p := h.P99(); p != 4096 {
			t.Errorf("p99 = %d, want 4096", p)
		}
		if m := h.Mean(); m < 440 || m > 450 {
			t.Errorf("mean = %v, want ~445", m)
		}
	})
}

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 20, 20}, {1<<40 + 1, numBuckets}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	withEnabled(t, func() {
		r := &Registry{}
		c := r.NewCounterL("t_d_total", "", "")
		h := r.NewHistogramL("t_d_ns", "", "")
		c.Add(3)
		h.Observe(10)
		before := r.Snapshot()
		c.Add(4)
		h.Observe(20)
		h.Observe(40)
		after := r.Snapshot()
		d := Delta(before, after)
		if d["t_d_total"] != 4 {
			t.Errorf("counter delta = %v, want 4", d["t_d_total"])
		}
		if d["t_d_ns.count"] != 2 || d["t_d_ns.sum"] != 60 {
			t.Errorf("hist delta = %v", d)
		}
		if d["t_d_ns.mean"] != 30 {
			t.Errorf("hist mean = %v, want 30", d["t_d_ns.mean"])
		}
	})
}

func TestSpanString(t *testing.T) {
	sp := &Span{
		Op: "store.get_node_props", Duration: 1500 * time.Nanosecond,
		Shards: []int{0, 2}, LogStore: true, NodeFile: true,
		Fanout: 2, Local: 1, Remote: 4, Bytes: 96,
	}
	s := sp.String()
	for _, frag := range []string{"store.get_node_props", "shards=[0 2]", "src=logstore+nodefile", "fanout=2 local=1 remote=4", "bytes=96"} {
		if !strings.Contains(s, frag) {
			t.Errorf("span string %q missing %q", s, frag)
		}
	}
}

// TestSpanSampling verifies the flight recorder records exactly one
// span per sampling period, and that period 1 records everything.
func TestSpanSampling(t *testing.T) {
	withEnabled(t, func() {
		prev := SetSpanSampling(8)
		defer SetSpanSampling(prev)
		ResetSpans()
		spanTick.Store(0)
		for i := 0; i < 80; i++ {
			sp := StartSpan("t.sampled")
			sp.End()
		}
		if got := SpanTotal(); got != 10 {
			t.Errorf("sampled span total = %d, want 10", got)
		}
		SetSpanSampling(1)
		ResetSpans()
		for i := 0; i < 5; i++ {
			sp := StartSpan("t.all")
			if sp == nil {
				t.Fatal("sampling=1 must trace every span")
			}
			sp.End()
		}
		if got := SpanTotal(); got != 5 {
			t.Errorf("unsampled span total = %d, want 5", got)
		}
	})
}

// TestTraceMetricNames locks the trace-layer metric names into the
// default registry's exposition so renames fail CI.
func TestTraceMetricNames(t *testing.T) {
	withEnabled(t, func() {
		expo := Default.Expose()
		for _, want := range []string{
			"zipg_trace_spans_total",
			"zipg_trace_error_spans_total",
			"zipg_trace_slow_total",
		} {
			if !strings.Contains(expo, want) {
				t.Errorf("exposition missing %s", want)
			}
		}
	})
}

// TestErrorSpansBypassSampling verifies a failing query is recorded
// even when the sampling period would have skipped it.
func TestErrorSpansBypassSampling(t *testing.T) {
	withEnabled(t, func() {
		prev := SetSpanSampling(1 << 30) // effectively never sample
		defer SetSpanSampling(prev)
		ResetSpans()
		spanTick.Store(1) // past the period's first tick

		if sp := StartSpan("t.unsampled"); sp != nil {
			t.Fatal("span should have fallen outside the sampling period")
		}
		RecordErrorSpan("t.failed", time.Now(), errTest)
		if got := SpanTotal(); got != 1 {
			t.Fatalf("span total = %d, want 1 (error span must record)", got)
		}
		spans := RecentSpans(1)
		if len(spans) != 1 || spans[0].Err != "boom" {
			t.Fatalf("recorded span = %+v", spans)
		}
		// Failures surface in the slow ring regardless of duration.
		slow := SlowSpans()
		if len(slow) != 1 || slow[0].Err != "boom" {
			t.Fatalf("slow ring = %+v, want the failed span", slow)
		}
	})
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestTraceTableAndAssembly builds a three-span tree through the
// context API and checks assembly, ID parsing, and eviction bounds.
func TestTraceTableAndAssembly(t *testing.T) {
	withEnabled(t, func() {
		prev := SetSpanSampling(1)
		defer SetSpanSampling(prev)
		ResetSpans()

		root, ctx := StartSpanCtx(context.Background(), "t.root")
		child, cctx := StartSpanCtx(ctx, "t.child")
		grand, _ := StartSpanCtx(cctx, "t.grand")
		grand.AddPhase("succinct_walk", 5*time.Millisecond)
		grand.End()
		child.End()
		root.End()

		if root.Trace.IsZero() || child.Trace != root.Trace || grand.Trace != root.Trace {
			t.Fatalf("trace IDs diverge: %s %s %s", root.Trace, child.Trace, grand.Trace)
		}
		tree := AssembleTrace(root.Trace)
		if tree == nil || tree.SpanCount != 3 || len(tree.Roots) != 1 {
			t.Fatalf("tree = %+v, want 3 spans under 1 root", tree)
		}
		n := tree.Roots[0]
		if n.Span.Op != "t.root" || len(n.Children) != 1 ||
			n.Children[0].Span.Op != "t.child" || len(n.Children[0].Children) != 1 ||
			n.Children[0].Children[0].Span.Op != "t.grand" {
			t.Fatalf("tree shape wrong: %+v", tree)
		}
		// Round-trip the ID through its string form.
		id, err := ParseTraceID(root.Trace.String())
		if err != nil || id != root.Trace {
			t.Fatalf("ParseTraceID(%s) = %v, %v", root.Trace, id, err)
		}
		// The table is bounded: flooding past maxTraces evicts oldest.
		for i := 0; i < maxTraces+10; i++ {
			sp := StartSpan("t.flood")
			sp.End()
		}
		if AssembleTrace(root.Trace) != nil {
			t.Error("oldest trace should have been evicted")
		}
	})
}

// TestSlowRingThreshold verifies only roots over the threshold enter
// the ring, ordered failures-first.
func TestSlowRingThreshold(t *testing.T) {
	withEnabled(t, func() {
		prev := SetSpanSampling(1)
		defer SetSpanSampling(prev)
		prevTh := SetSlowThreshold(10 * time.Millisecond)
		defer SetSlowThreshold(prevTh)
		ResetSpans()

		fast := StartSpan("t.fast")
		fast.End()
		slow := StartSpan("t.slow")
		slow.Start = slow.Start.Add(-50 * time.Millisecond) // backdate: 50ms "elapsed"
		slow.End()
		failed := StartSpan("t.failed")
		failed.SetError(errTest)
		failed.End()

		got := SlowSpans()
		if len(got) != 2 {
			t.Fatalf("slow ring holds %d spans, want 2 (slow + failed)", len(got))
		}
		if got[0].Op != "t.failed" || got[1].Op != "t.slow" {
			t.Errorf("slow ring order = [%s %s], want failures first", got[0].Op, got[1].Op)
		}
	})
}

func TestVecReuse(t *testing.T) {
	withEnabled(t, func() {
		v := NewCounterVec("t_vec_total", "method", "")
		a1 := v.With("A")
		a2 := v.With("A")
		if a1 != a2 {
			t.Error("CounterVec.With should return the same counter")
		}
		hv := NewHistogramVec("t_vec_ns", "method", "")
		if hv.With("B") != hv.With("B") {
			t.Error("HistogramVec.With should return the same histogram")
		}
	})
}

func BenchmarkCounterParallel(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := &Registry{}
	c := r.NewCounterL("b_total", "", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() != int64(b.N) {
		b.Fatalf("count %d != N %d", c.Value(), b.N)
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := &Registry{}
	c := r.NewCounterL("b_off_total", "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := &Registry{}
	h := r.NewHistogramL("b_ns", "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestVecFirstUseRace: 32 goroutines make the first With("x") on a
// CounterVec and a HistogramVec at once. Exactly one series per family
// may be registered, and both Snapshot and Expose must show it with
// the exact total — a losing duplicate stuck at 0 would shadow it.
func TestVecFirstUseRace(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	// Fresh family names: the vecs register in the process-wide default
	// registry, which outlives one run under -count.
	suffix := fmt.Sprint(time.Now().UnixNano())
	cv := NewCounterVec("zipg_test_vec_race_"+suffix+"_total", "k", "test")
	hv := NewHistogramVec("zipg_test_vec_race_"+suffix+"_ns", "k", "test")
	const goroutines = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cv.With("x").Inc()
			hv.With("x").Observe(1)
		}()
	}
	close(start)
	wg.Wait()

	counter := "zipg_test_vec_race_" + suffix + `_total{k="x"}`
	hist := "zipg_test_vec_race_" + suffix + `_ns{k="x"}`
	snap := Default.Snapshot()
	if snap[counter] != goroutines || snap[hist+".count"] != goroutines {
		t.Fatalf("snapshot: counter %v, histogram count %v, want %d", snap[counter], snap[hist+".count"], goroutines)
	}
	var counterLines, countLines []string
	for _, line := range strings.Split(Default.Expose(), "\n") {
		switch {
		case strings.HasPrefix(line, counter+" "):
			counterLines = append(counterLines, line)
		case strings.HasPrefix(line, "zipg_test_vec_race_"+suffix+`_ns_count{k="x"} `):
			countLines = append(countLines, line)
		}
	}
	want := fmt.Sprint(goroutines)
	if len(counterLines) != 1 || !strings.HasSuffix(counterLines[0], " "+want) {
		t.Fatalf("exposition counter series: %q, want one line ending %s", counterLines, want)
	}
	if len(countLines) != 1 || !strings.HasSuffix(countLines[0], " "+want) {
		t.Fatalf("exposition histogram count series: %q, want one line ending %s", countLines, want)
	}
}
