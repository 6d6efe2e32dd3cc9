// Command perfbench is the repository's benchmark: TAO and LinkBench
// mixes (Table 2 of the paper) driven by a closed loop of two clients
// against one in-process ZipG graph or a 3-server loopback cluster, with
// every answer checked against internal/refgraph.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tao-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json,
// with --trace 1 the per-layer ones, one "name value unit" line each,
// then one JSON object as the last line. NOTES.md describes the
// workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"zipg"
	"zipg/internal/graphapi"
	"zipg/internal/telemetry"
	"zipg/internal/workloads"
)

const (
	// setupRuns is how many times a run builds the system; setup_s is
	// the median.
	setupRuns = 3
	// warmup is the untimed phase before measuring.
	warmup = 2 * time.Second
	// opsPerClient sizes each client's op sequence; a client that
	// finishes it starts again from the top.
	opsPerClient = 1 << 16
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tao-local, linkbench-local or tao-cluster3")
	seed := flag.Int64("seed", 1, "seed of the clients' op sequences")
	seconds := flag.Int("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an extra traced phase")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, measure time.Duration, traced bool, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	b, err := newBench(w, seed)
	if err != nil {
		return err
	}
	measured, err := b.run(measure, traced)
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = b.calls()
	start := time.Now()
	m := checkAnswers(b.data, b.runs)
	answers := 0
	for _, r := range b.runs {
		answers += len(r.digests)
	}
	fmt.Fprintf(os.Stderr, "checked %d answers against the reference in %.1fs\n", answers, time.Since(start).Seconds())
	if m != nil {
		m.explain(w, b.data, b.runs)
		fmt.Fprintln(os.Stderr, m)
		res.Correct = false
	}
	if traced && b.sysServers > 0 && measured["cluster.phase_coverage"] < 0.90 {
		fmt.Fprintf(os.Stderr, "phase coverage %.3f of server serve time is below 0.90\n", measured["cluster.phase_coverage"])
		res.Correct = false
	}
	for _, ms := range want {
		v, ok := measured[ms.Name]
		if !ok {
			return fmt.Errorf("%s names metric %q, which workload %s does not measure", specPath, ms.Name, name)
		}
		res.Metrics[ms.Name] = metricValue{v, ms.Unit}
		fmt.Printf("%-40s %14.4f %s\n", ms.Name, v, ms.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench is one benchmark run of a workload.
type bench struct {
	w          *workload
	data       zipg.GraphData
	runs       []*clientRun
	sys        *system
	sysServers int
	setup      []float64 // seconds per build
	timed      [][]*phaseStats
}

// newBench generates the data and ops; none of it is timed.
func newBench(w *workload, seed int64) (*bench, error) {
	d, err := w.generate()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, data: zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}}
	for c := 0; c < numClients; c++ {
		b.runs = append(b.runs, newClientRun(clientOps(d, w, seed, c, opsPerClient)))
	}
	return b, nil
}

// build sets the system up setupRuns times, each from a collected heap,
// and keeps the last.
func (b *bench) build() error {
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		sys, err := b.w.build(b.data)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		if i < setupRuns-1 {
			sys.close()
		}
		b.sys = sys
	}
	b.sysServers = b.sys.numServers
	return nil
}

// phase drives every client in a closed loop against its store until d
// has elapsed. stats, if non-nil, receive the calls' latencies; after,
// if non-nil, gives each client a hook to run between calls. It returns
// the phase's wall time.
func (b *bench) phase(stores []graphapi.Store, d time.Duration, stats []*phaseStats, after []func()) time.Duration {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c, r := range b.runs {
		var st *phaseStats
		if stats != nil {
			st = stats[c]
		}
		var hook func()
		if after != nil {
			hook = after[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runUntil(stores[c], end, st, hook)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func newStats() []*phaseStats {
	st := make([]*phaseStats, numClients)
	for i := range st {
		st[i] = &phaseStats{}
	}
	return st
}

// run sets up, warms up, measures and settles the system, and returns
// every metric it measured by name.
func (b *bench) run(measure time.Duration, traced bool) (map[string]float64, error) {
	m := map[string]float64{}
	if err := b.build(); err != nil {
		return nil, err
	}
	m["setup_s"] = median(b.setup)
	b.phase(b.sys.stores, warmup, nil, nil)

	stats := newStats()
	wall := b.phase(b.sys.stores, measure, stats, nil)
	b.timed = append(b.timed, stats)
	lat, kinds := merge(stats)
	kindMetrics(m, lat, kinds)
	sortDurations(lat)
	m["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	m["p50_us"] = percentileUs(lat, 0.50)
	m["p99_us"] = percentileUs(lat, 0.99)

	if traced {
		b.tracedPhase(m, measure)
	}

	footprint, raw, err := b.sys.settle()
	if err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	heapWith := liveHeap()
	b.sys.close()
	b.sys = nil
	heap := float64(heapWith) - float64(liveHeap())
	m["footprint_ratio"] = float64(footprint) / float64(raw)
	m["heap_ratio"] = heap / float64(raw)
	m["store.footprint_bytes"] = float64(footprint)
	m["store.heap_bytes"] = heap
	m["store.heap_per_footprint"] = heap / float64(footprint)

	attempted, failed := b.calls()
	m["workloads.failed_frac"] = ratio(float64(failed), float64(attempted))
	return m, nil
}

// calls returns how many calls the timed phases made and how many of
// them returned an error.
func (b *bench) calls() (attempted, failed int64) {
	for _, stats := range b.timed {
		for _, st := range stats {
			attempted += int64(len(st.lat))
			failed += st.failed
		}
	}
	return attempted, failed
}

// tracedPhase measures once more with telemetry on, every span sampled
// and every boundary call timed, and derives the per-layer metrics.
func (b *bench) tracedPhase(m map[string]float64, measure time.Duration) {
	wasOn := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(wasOn)
	prevSampling := telemetry.SetSpanSampling(1)
	defer telemetry.SetSpanSampling(prevSampling)
	telemetry.ResetSpans()

	harvest := newPhaseHarvest()
	times := make([]*callTimes, numClients)
	stores := make([]graphapi.Store, numClients)
	after := make([]func(), numClients)
	for c := range times {
		t := &callTimes{numServers: b.sysServers}
		times[c] = t
		stores[c] = timedStore{b.sys.stores[c], t}
		after[c] = func() {
			t.endOp()
			if b.sysServers > 0 {
				harvest.poll()
			}
		}
	}

	expBefore := telemetry.Default.Expose()
	stats := newStats()
	wall := b.phase(stores, measure, stats, after)
	expAfter := telemetry.Default.Expose()
	b.timed = append(b.timed, stats)
	// delta reads a counter family, or a histogram's _sum or _count, from
	// the exposition; see counterSum for why not from a Snapshot.
	delta := func(family string) float64 {
		return counterSum(expAfter, family) - counterSum(expBefore, family)
	}
	bucketBoundUs := func(family string, q float64) float64 {
		return float64(bucketQuantile(histogramDelta(expBefore, expAfter, family), q)) / 1e3
	}

	lat, kinds := merge(stats)
	ops := float64(len(lat))
	var writes float64
	for _, k := range kinds {
		if isWrite(k) {
			writes++
		}
	}
	m["trace_overhead_frac"] = 1 - ops/wall.Seconds()/m["ops_per_s"]

	// Boundary calls: the decorator sits on zipg.Graph locally and on
	// cluster.Client in the cluster; the other layer reports zeros.
	layer, idle := "store", "cluster"
	if b.sysServers > 0 {
		layer, idle = idle, layer
	}
	var fanOps, fanServers int64
	for c := 0; c < numCalls; c++ {
		var n, ns int64
		for _, t := range times {
			n += t.n[c]
			ns += t.ns[c]
		}
		m[layer+"."+callNames[c]+"_calls"] = float64(n)
		m[layer+"."+callNames[c]+"_us"] = ratio(float64(ns)/1e3, float64(n))
		m[idle+"."+callNames[c]+"_calls"] = 0
		m[idle+"."+callNames[c]+"_us"] = 0
	}
	for _, t := range times {
		fanOps += t.ops
		fanServers += t.servers
	}
	m["cluster.fanout"] = 0
	if b.sysServers > 0 {
		m["cluster.fanout"] = ratio(float64(fanServers), float64(fanOps))
	}

	// Store overlay and write path.
	m["store.fragments_per_read"] = ratio(delta("zipg_store_fragments_per_read_sum"), delta("zipg_store_fragments_per_read_count"))
	m["store.group_commit_records_per_batch"] = ratio(delta("zipg_group_commit_records_total"), delta("zipg_group_commit_batches_total"))
	m["store.write_stall_p99_us"] = bucketBoundUs("zipg_write_stall_ns", 0.99)
	m["store.rollovers"] = delta("zipg_store_rollovers_total")
	m["store.compactions"] = delta("zipg_store_compactions_total")
	m["store.compaction_s"] = delta("zipg_store_compaction_ns_sum") / 1e9
	m["store.compaction_pause_max_us"] = bucketBoundUs("zipg_compaction_pause_ns", 1)

	// LogStore and succinct work.
	m["logstore.reads_per_op"] = ratio(delta("zipg_logstore_reads_total"), ops)
	m["logstore.appends"] = delta("zipg_logstore_appends_total")
	m["logstore.bytes_per_write"] = ratio(delta("zipg_logstore_bytes_total"), writes)
	m["succinct.psi_steps_per_op"] = ratio(delta("zipg_succinct_psi_steps_total"), ops)
	m["succinct.isa_lookups_per_op"] = ratio(delta("zipg_succinct_isa_lookups_total"), ops)
	m["succinct.extract_bytes_per_op"] = ratio(delta("zipg_succinct_extract_bytes_total"), ops)

	// RPC and server phases.
	m["rpc.calls_per_op"] = ratio(delta("zipg_rpc_client_calls_total"), ops)
	m["rpc.frame_bytes_per_op"] = ratio(delta("zipg_rpc_frame_bytes_total"), ops)
	m["rpc.errors"] = delta("zipg_rpc_errors_total")
	// Every client has returned, so the harvest is no longer shared.
	for _, p := range []string{"queue", "decode", "serialize", "network", "succinct_walk"} {
		m["cluster."+p+"_us"] = median(harvest.phases[p])
	}
	m["cluster.phase_coverage"] = harvest.coverage()
}

// kindMetrics adds the workloads layer's per-kind calls and p50, and
// the p99 of the write calls.
func kindMetrics(m map[string]float64, lat []time.Duration, kinds []workloads.OpKind) {
	byKind := map[workloads.OpKind][]time.Duration{}
	var writes []time.Duration
	for i, k := range kinds {
		byKind[k] = append(byKind[k], lat[i])
		if isWrite(k) {
			writes = append(writes, lat[i])
		}
	}
	for k := workloads.OpAssocRange; k <= workloads.OpAssocUpdate; k++ {
		ls := byKind[k]
		sortDurations(ls)
		m["workloads."+k.String()+".calls"] = float64(len(ls))
		m["workloads."+k.String()+".p50_us"] = percentileUs(ls, 0.50)
	}
	sortDurations(writes)
	m["workloads.write_p99_us"] = percentileUs(writes, 0.99)
}

// merge concatenates the clients' latencies and their op kinds.
func merge(stats []*phaseStats) ([]time.Duration, []workloads.OpKind) {
	var lat []time.Duration
	var kinds []workloads.OpKind
	for _, st := range stats {
		lat = append(lat, st.lat...)
		kinds = append(kinds, st.kinds...)
	}
	return lat, kinds
}

func sortDurations(ds []time.Duration) { sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] }) }

// percentileUs returns the nearest-rank q-quantile of sorted durations in
// microseconds, 0 for none.
func percentileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := max(0, int(math.Ceil(q*float64(len(sorted))))-1)
	return float64(sorted[i]) / 1e3
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
