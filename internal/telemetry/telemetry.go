// Package telemetry is ZipG's observability substrate: lock-free
// sharded counters, gauges, power-of-two latency histograms with
// percentile extraction, and a per-query span recorder. Every layer of
// the query path (store, logstore, rpc, cluster) reports into a global
// registry which the admin HTTP listener (see http.go) exposes in the
// Prometheus text exposition format.
//
// All recording is gated on one atomic enable flag so that a disabled
// store pays only an atomic load on its hot path; benchmarks in
// internal/store keep the enabled path honest too. Metric mutators are
// safe for concurrent use without locks: counters stripe their cells
// across cache lines, histograms use one atomic per bucket.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled gates all recording. Off by default: library users opt in.
var enabled atomic.Bool

// Enable turns recording on.
func Enable() { enabled.Store(true) }

// Disable turns recording off. Existing values are retained.
func Disable() { enabled.Store(false) }

// Enabled reports whether telemetry is recording.
func Enabled() bool { return enabled.Load() }

// SetEnabled sets the flag and returns the previous state (handy for
// benchmarks that must restore it).
func SetEnabled(on bool) bool { return enabled.Swap(on) }

const cacheLine = 64

// numCells is the stripe width of a Counter: a power of two comfortably
// above typical core counts so concurrent writers rarely share a cell.
const numCells = 32

// cell is one cache-line-padded counter stripe.
type cell struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// cellIndex picks a stripe for the calling goroutine. Goroutine stacks
// live in distinct spans, so the address of any stack variable is a
// cheap goroutine-stable hash: same goroutine keeps hitting the same
// (cached) cell, different goroutines scatter.
func cellIndex() uint32 {
	var x byte
	p := uintptr(unsafe.Pointer(&x))
	h := uint32(p >> 4)
	h ^= h >> 9
	return h & (numCells - 1)
}

// Counter is a monotonically increasing, lock-free sharded counter.
type Counter struct {
	meta
	cells [numCells]cell
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (no-op while telemetry is disabled).
func (c *Counter) Add(delta int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.cells[cellIndex()].n.Add(delta)
}

// Value sums the stripes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous value (e.g. in-flight requests).
type Gauge struct {
	meta
	n atomic.Int64
}

// Inc adds 1. Gauges record even while disabled: they track state
// (in-flight counts) whose deltas would otherwise be lost across an
// enable/disable toggle.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// numBuckets covers values 1ns..~8.8s (2^0..2^33) in power-of-two
// buckets, plus one overflow bucket.
const numBuckets = 34

// Histogram is a lock-free power-of-two histogram. Values are int64
// observations — nanoseconds for latency metrics, plain counts for
// size/fan-out metrics; bucket i counts observations v with
// 2^(i-1) < v <= 2^i (bucket 0: v <= 1).
type Histogram struct {
	meta
	buckets [numBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (no-op while disabled).
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v))
	if b > numBuckets {
		b = numBuckets
	}
	return b
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) int64 {
	if i >= numBuckets {
		return -1 // +Inf
	}
	return int64(1) << uint(i)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1):
// the upper boundary of the bucket holding the q-th observation.
// Because buckets are powers of two the bound is within 2x of the true
// value — good enough for p50/p95/p99 dashboards.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			b := bucketBound(i)
			if b < 0 { // overflow bucket
				return int64(1) << numBuckets
			}
			return b
		}
	}
	return int64(1) << numBuckets
}

// P50, P95 and P99 extract the standard latency percentiles.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P95 is the 95th percentile upper bound.
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }

// P99 is the 99th percentile upper bound.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Timer captures a start time for latency observations. The zero Timer
// (returned while disabled) makes the matching Observe call a no-op, so
// the disabled hot path never calls time.Now.
type Timer struct {
	start time.Time
}

// StartTimer begins a latency measurement (zero Timer while disabled).
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{start: time.Now()}
}

// ObserveInto records the elapsed time into h (no-op for zero Timers).
func (t Timer) ObserveInto(h *Histogram) {
	if t.start.IsZero() {
		return
	}
	h.ObserveDuration(time.Since(t.start))
}

// Elapsed returns the time since the timer started (0 for zero Timers).
func (t Timer) Elapsed() time.Duration {
	if t.start.IsZero() {
		return 0
	}
	return time.Since(t.start)
}

// --- registry ---

// meta is the shared identity of a registered metric.
type meta struct {
	family string // metric family name, e.g. zipg_store_ops_total
	labels string // optional label set, e.g. `op="get_node_props"`
	help   string
}

// series renders the full series name for exposition and snapshots.
func (m *meta) series() string {
	if m.labels == "" {
		return m.family
	}
	return m.family + "{" + m.labels + "}"
}

type metric interface {
	metricMeta() *meta
}

func (m *meta) metricMeta() *meta { return m }

// Registry holds registered metrics; the package-level Default registry
// is what the admin endpoints expose.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// Default is the process-wide registry.
var Default = &Registry{}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// NewCounter registers a labelless counter in the default registry.
func NewCounter(family, help string) *Counter { return Default.NewCounterL(family, "", help) }

// NewCounterL registers a counter with a fixed label set (e.g.
// `op="get_node_props"`; the caller formats the labels) in the default
// registry.
func NewCounterL(family, labels, help string) *Counter {
	return Default.NewCounterL(family, labels, help)
}

// NewCounterL registers a counter with a fixed label set.
func (r *Registry) NewCounterL(family, labels, help string) *Counter {
	c := &Counter{meta: meta{family: family, labels: labels, help: help}}
	r.register(c)
	return c
}

// NewGauge registers a gauge in the default registry.
func NewGauge(family, help string) *Gauge { return Default.NewGauge(family, help) }

// NewGauge registers a gauge.
func (r *Registry) NewGauge(family, help string) *Gauge {
	g := &Gauge{meta: meta{family: family, help: help}}
	r.register(g)
	return g
}

// NewHistogram registers a labelless histogram in the default registry.
func NewHistogram(family, help string) *Histogram {
	return Default.NewHistogramL(family, "", help)
}

// NewHistogramL registers a histogram with a fixed label set in the
// default registry.
func NewHistogramL(family, labels, help string) *Histogram {
	return Default.NewHistogramL(family, labels, help)
}

// NewHistogramL registers a histogram with a fixed label set.
func (r *Registry) NewHistogramL(family, labels, help string) *Histogram {
	h := &Histogram{meta: meta{family: family, labels: labels, help: help}}
	r.register(h)
	return h
}

// CounterVec is a family of counters keyed by one label value, created
// on demand (per-RPC-method counts). Lookups are a sync.Map load.
type CounterVec struct {
	family, labelKey, help string
	m                      sync.Map // label value -> *Counter
}

// NewCounterVec registers a dynamic counter family.
func NewCounterVec(family, labelKey, help string) *CounterVec {
	return &CounterVec{family: family, labelKey: labelKey, help: help}
}

// With returns the counter for one label value, creating and
// registering it on first use. Only the goroutine whose counter wins
// the map registers it, so racing first uses leave one series.
func (v *CounterVec) With(value string) *Counter {
	if c, ok := v.m.Load(value); ok {
		return c.(*Counter)
	}
	c := &Counter{meta: meta{family: v.family, labels: fmt.Sprintf("%s=%q", v.labelKey, value), help: v.help}}
	if prev, loaded := v.m.LoadOrStore(value, c); loaded {
		return prev.(*Counter)
	}
	Default.register(c)
	return c
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	family, labelKey, help string
	m                      sync.Map // label value -> *Histogram
}

// NewHistogramVec registers a dynamic histogram family.
func NewHistogramVec(family, labelKey, help string) *HistogramVec {
	return &HistogramVec{family: family, labelKey: labelKey, help: help}
}

// With returns the histogram for one label value, registering it on
// first use exactly as CounterVec.With does.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.m.Load(value); ok {
		return h.(*Histogram)
	}
	h := &Histogram{meta: meta{family: v.family, labels: fmt.Sprintf("%s=%q", v.labelKey, value), help: v.help}}
	if prev, loaded := v.m.LoadOrStore(value, h); loaded {
		return prev.(*Histogram)
	}
	Default.register(h)
	return h
}

// --- exposition ---

// Expose renders every registered metric in the Prometheus text
// exposition format (stdlib-only). Families are grouped with one
// HELP/TYPE header; histogram buckets are cumulative with `le` labels
// and empty tail buckets elided.
func (r *Registry) Expose() string {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()

	byFamily := make(map[string][]metric)
	var families []string
	for _, m := range ms {
		f := m.metricMeta().family
		if _, ok := byFamily[f]; !ok {
			families = append(families, f)
		}
		byFamily[f] = append(byFamily[f], m)
	}
	sort.Strings(families)

	var sb strings.Builder
	for _, f := range families {
		group := byFamily[f]
		mm := group[0].metricMeta()
		typ := "counter"
		switch group[0].(type) {
		case *Gauge:
			typ = "gauge"
		case *Histogram:
			typ = "histogram"
		}
		if mm.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f, mm.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f, typ)
		sort.Slice(group, func(i, j int) bool {
			return group[i].metricMeta().labels < group[j].metricMeta().labels
		})
		for _, m := range group {
			switch v := m.(type) {
			case *Counter:
				fmt.Fprintf(&sb, "%s %d\n", v.series(), v.Value())
			case *Gauge:
				fmt.Fprintf(&sb, "%s %d\n", v.series(), v.Value())
			case *Histogram:
				exposeHistogram(&sb, v)
			}
		}
	}
	return sb.String()
}

func exposeHistogram(sb *strings.Builder, h *Histogram) {
	base := h.family
	sep := "{"
	if h.labels != "" {
		sep = "{" + h.labels + ","
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if n > 0 { // elide buckets that add nothing
			fmt.Fprintf(sb, "%s_bucket%sle=\"%d\"} %d\n", base, sep, bucketBound(i), cum)
		}
	}
	cum += h.buckets[numBuckets].Load()
	fmt.Fprintf(sb, "%s_bucket%sle=%q} %d\n", base, sep, "+Inf", cum)
	suffix := ""
	if h.labels != "" {
		suffix = "{" + h.labels + "}"
	}
	fmt.Fprintf(sb, "%s_sum%s %d\n", base, suffix, h.Sum())
	fmt.Fprintf(sb, "%s_count%s %d\n", base, suffix, h.Count())
}

// --- snapshots (the bench harness diffs these around each workload) ---

// Snapshot is a point-in-time reading of every registered series.
// Histograms contribute three entries: <series>.sum, <series>.count and
// <series>.mean (mean is recomputed by Delta, not subtracted).
type Snapshot map[string]float64

// TakeSnapshot reads the default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(Snapshot, len(ms))
	for _, m := range ms {
		name := m.metricMeta().series()
		switch v := m.(type) {
		case *Counter:
			out[name] = float64(v.Value())
		case *Gauge:
			out[name] = float64(v.Value())
		case *Histogram:
			out[name+".sum"] = float64(v.Sum())
			out[name+".count"] = float64(v.Count())
		}
	}
	return out
}

// Delta returns after-minus-before for every series present in after,
// dropping zero deltas and deriving <series>.mean for histograms with a
// nonzero count delta.
func Delta(before, after Snapshot) Snapshot {
	out := make(Snapshot)
	for k, v := range after {
		d := v - before[k]
		if d != 0 {
			out[k] = d
		}
	}
	for k, cnt := range out {
		if strings.HasSuffix(k, ".count") && cnt > 0 {
			base := strings.TrimSuffix(k, ".count")
			out[base+".mean"] = out[base+".sum"] / cnt
		}
	}
	return out
}
