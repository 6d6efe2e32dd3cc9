// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and the appendices). Each experiment builds the systems
// under test over generated datasets (package gen), routes their storage
// through simulated media (package memsim), executes the pre-generated
// workloads (package workloads), and reports throughput against
// wall-clock time plus simulated I/O stall time.
//
// # The memory model
//
// The paper's single-server experiments ran on 244 GB of RAM against
// datasets of 20/250/636 GB — a RAM-to-smallest-dataset ratio of ≈12.2.
// We preserve exactly that ratio: every system's medium gets a budget of
// 12.2× the base dataset size, so whichever system's footprint exceeds
// it spills to (simulated) SSD, reproducing Table 5's who-fits-in-memory
// matrix and the throughput cliffs of Figures 6–8 at megabyte scale.
//
// Reported numbers are KOps/s against (wall + simulated stall) time.
// Absolute values are not comparable with the paper's EC2 hardware; the
// shapes — who wins, by what factor, where the crossover happens — are
// what EXPERIMENTS.md tracks.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zipg"
	"zipg/internal/baselines/kvstore"
	"zipg/internal/baselines/pointerstore"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/memsim"
)

// MemoryRatio is the server-RAM to base-dataset ratio (244 GB / 20 GB).
const MemoryRatio = 12.2

// Options configures an experiment run.
type Options struct {
	// BaseBytes is the size of the smallest dataset (Table 4's orkut);
	// the others scale 12.5x and 32x. Default 256 KiB (quick).
	BaseBytes int64
	// Ops is the number of operations per throughput measurement.
	// Default 2000.
	Ops int
	// Verbose prints progress while building.
	Verbose bool
}

func (o Options) withDefaults() Options {
	if o.BaseBytes <= 0 {
		o.BaseBytes = 256 << 10
	}
	if o.Ops <= 0 {
		o.Ops = 2000
	}
	return o
}

// SystemNames lists the compared systems in the paper's order.
var SystemNames = []string{"neo4j", "neo4j-tuned", "titan", "titan-c", "zipg"}

// System is one system under test with its simulated storage.
type System struct {
	Name  string
	Store graphapi.Store
	Med   *memsim.Medium
	Clock *memsim.Clock
}

// BuildSystem constructs one system over a dataset with the given memory
// budget (bytes; <0 unlimited).
func BuildSystem(name string, d *gen.Dataset, budget int64) (*System, error) {
	clock := &memsim.Clock{}
	med := memsim.NewMedium(clock, memsim.Config{Budget: budget})
	sys := &System{Name: name, Med: med, Clock: clock}
	var err error
	switch name {
	case "zipg":
		sys.Store, err = zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{
			NumShards:    4,
			SamplingRate: 32,
			Medium:       med,
		})
	case "neo4j":
		sys.Store, err = pointerstore.New(d.Nodes, d.Edges, pointerstore.Config{Medium: med})
	case "neo4j-tuned":
		// The tuned object cache shares the server's RAM: size it to a
		// fraction of the budget (~1 KiB per cached node record set).
		cacheNodes := 10000
		if budget >= 0 {
			cacheNodes = int(budget / 4096)
			if cacheNodes < 16 {
				cacheNodes = 16
			}
		}
		sys.Store, err = pointerstore.New(d.Nodes, d.Edges, pointerstore.Config{
			Medium: med, Tuned: true, CacheNodes: cacheNodes,
		})
	case "titan":
		sys.Store, err = kvstore.New(d.Nodes, d.Edges, kvstore.Config{Medium: med})
	case "titan-c":
		sys.Store, err = kvstore.New(d.Nodes, d.Edges, kvstore.Config{Medium: med, Compress: true})
	default:
		err = fmt.Errorf("bench: unknown system %q", name)
	}
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// Throughput measures ops/sec for fn over n operations: wall time plus
// the medium's simulated stall time. A warm-up pass (the paper warms
// caches for 15 minutes) runs first.
func (s *System) Throughput(n int, fn func(i int)) float64 {
	return s.ThroughputUnderPressure(n, fn, nil)
}

// ThroughputUnderPressure is Throughput with background cache pressure:
// before each timed operation, pressure(i) runs with the medium in
// silent mode (its accesses load and evict pages but cost nothing).
//
// This is how per-component throughputs (Figures 6–8's right-hand
// panels) are measured: a component benchmarked in a vacuum would let
// the LRU specialize to that component's structures and nothing would
// ever spill, whereas the paper measured components on servers whose
// caches held the whole production working set.
func (s *System) ThroughputUnderPressure(n int, fn func(i int), pressure func(i int)) float64 {
	apply := func(i int) {
		if pressure != nil {
			s.Med.SetSilent(true)
			pressure(2 * i)
			pressure(2*i + 1)
			s.Med.SetSilent(false)
		}
		fn(i)
	}
	// Warm-up: one pass over a prefix.
	warm := n / 4
	if warm > 500 {
		warm = 500
	}
	for i := 0; i < warm; i++ {
		apply(i)
	}
	s.Med.ResetStats()
	s.Clock.Reset()
	var wall time.Duration
	for i := 0; i < n; i++ {
		if pressure != nil {
			// Pressure CPU time is not part of the measured operation.
			s.Med.SetSilent(true)
			pressure(2 * i)
			pressure(2*i + 1)
			s.Med.SetSilent(false)
		}
		opStart := time.Now()
		fn(i)
		wall += time.Since(opStart)
	}
	elapsed := wall + s.Clock.Elapsed()
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds()
}

// Result is one experiment's printable output.
type Result struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	printRow(r.Headers)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// kops formats a throughput as thousands of operations per second.
func kops(v float64) string { return fmt.Sprintf("%.2f", v/1000) }

// ratio formats a footprint ratio.
func ratioStr(num, den int64) string { return fmt.Sprintf("%.2f", float64(num)/float64(den)) }

// datasetByName generates one of the six standard datasets.
func datasetByName(name string, base int64) (*gen.Dataset, error) {
	for _, spec := range gen.StandardSpecs(base) {
		if spec.Name == name {
			return spec.Generate(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}

// footprintOf returns a system's accounted storage footprint.
func footprintOf(s *System) int64 { return s.Med.Footprint() }

// Experiments maps experiment IDs to runners, for cmd/zipg-bench.
var Experiments = map[string]func(Options) (*Result, error){
	"table4": Table4,
	"fig5":   Fig5,
	"table5": Table5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	// Ablations of the design choices DESIGN.md calls out (no paper
	// figure; §3.1/§3.5/§4.1 state the trade-offs).
	"ablation-alpha":    AblationAlpha,
	"ablation-fanned":   AblationFanned,
	"ablation-logstore": AblationLogStore,
	"ablation-shards":   AblationShards,
	// End-to-end telemetry readout on a live loopback cluster (no paper
	// figure; validates the observability layer and §4.1's fan-out).
	"telemetry-cluster": TelemetryCluster,
	// Distributed-tracing readout: per-phase latency attribution by
	// server from assembled span trees on a live loopback cluster (no
	// paper figure; validates the tracer and the phase taxonomy).
	"trace-attribution": TraceAttribution,
	// Worker-pool sweep over multi-fragment search and multi-shard
	// builds (no paper figure; §3.4/§4.1's aggregator parallelism).
	"parallel-scaling": ParallelScaling,
	// Succinct access-kernel latencies vs the recorded pre-kernel
	// baseline (no paper figure; §3.1's extract/search primitives).
	"kernel-bench": KernelBench,
	// Vectorized batch reads vs their scalar loops across batch sizes
	// (no paper figure; the batch kernel contract in DESIGN.md).
	"batch-bench": BatchBench,
	// Group-committed write path + online compaction under concurrent
	// writers (no paper figure; §3.5's write log and §4.1's GC, with
	// the stop-the-world pauses engineered out — see DESIGN.md).
	"ingest-bench": IngestBench,
	// Temporal engine: windowed scans with hot-header pruning, live
	// subscription delivery lag, temporal reachability (no paper
	// figure; the temporal layer in DESIGN.md).
	"temporal-bench": TemporalBench,
}

// ExperimentNames returns the runnable experiment IDs, sorted.
func ExperimentNames() []string {
	out := make([]string, 0, len(Experiments))
	for k := range Experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
