package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps experiment runtime in unit-test range; the shapes are
// asserted at this scale too (they are scale-free by design).
var tinyOpts = Options{BaseBytes: 48 << 10, Ops: 300}

func runExperiment(t *testing.T, name string) *Result {
	t.Helper()
	fn, ok := Experiments[name]
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	r, err := fn(tinyOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	out := r.Format()
	if !strings.Contains(out, r.Headers[0]) {
		t.Fatalf("%s: formatting broken:\n%s", name, out)
	}
	t.Logf("\n%s", out)
	return r
}

func cellFloat(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, r.Rows[row][col])
	}
	return v
}

func findRow(t *testing.T, r *Result, want ...string) int {
	t.Helper()
	for i, row := range r.Rows {
		match := true
		for j, w := range want {
			if w != "" && row[j] != w {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	t.Fatalf("no row matching %v in %v", want, r.Rows)
	return -1
}

func TestTable4(t *testing.T) {
	r := runExperiment(t, "table4")
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 datasets, got %d", len(r.Rows))
	}
}

func TestFig5StorageShape(t *testing.T) {
	r := runExperiment(t, "fig5")
	// Columns: dataset raw neo4j neo4j-tuned titan titan-c zipg.
	for i := range r.Rows {
		neo := cellFloat(t, r, i, 2)
		titan := cellFloat(t, r, i, 4)
		zipg := cellFloat(t, r, i, 6)
		// Paper: zipg 1.8-4x smaller than neo4j and titan uncompressed.
		if zipg >= neo {
			t.Errorf("%s: zipg ratio %.2f >= neo4j %.2f", r.Rows[i][0], zipg, neo)
		}
		if zipg >= titan {
			t.Errorf("%s: zipg ratio %.2f >= titan %.2f", r.Rows[i][0], zipg, titan)
		}
	}
	// Real-world compresses better than linkbench for zipg.
	orkut := cellFloat(t, r, findRow(t, r, "orkut"), 6)
	lb := cellFloat(t, r, findRow(t, r, "lb-small"), 6)
	if orkut >= lb {
		t.Errorf("zipg: orkut ratio %.2f >= lb-small %.2f (compressibility contrast lost)", orkut, lb)
	}
}

func TestTable5Shape(t *testing.T) {
	r := runExperiment(t, "table5")
	// zipg must fit strictly more datasets than neo4j.
	fits := func(col int) int {
		n := 0
		for _, row := range r.Rows {
			if row[col] == "yes" {
				n++
			}
		}
		return n
	}
	// Columns: dataset neo4j neo4j-tuned titan titan-c zipg.
	if fits(5) <= fits(1) {
		t.Errorf("zipg fits %d datasets, neo4j %d — expected zipg > neo4j", fits(5), fits(1))
	}
	// Everyone fits the smallest dataset.
	small := findRow(t, r, "orkut")
	for c := 1; c <= 5; c++ {
		if r.Rows[small][c] != "yes" {
			t.Errorf("%s should fit orkut", r.Headers[c])
		}
	}
}

func TestFig10Fig11Fragmentation(t *testing.T) {
	r10 := runExperiment(t, "fig10")
	// p50 fragmentation stays tiny even at the last snapshot.
	last := len(r10.Rows) - 1
	if p50 := cellFloat(t, r10, last, 2); p50 > 3 {
		t.Errorf("median fragmentation %f too high", p50)
	}
	// max <= total fragments.
	if cellFloat(t, r10, last, 6) > cellFloat(t, r10, last, 7) {
		t.Error("max fragments exceeds total fragments")
	}

	r11 := runExperiment(t, "fig11")
	// Average fragmentation must be non-decreasing over time.
	prev := 0.0
	for i := range r11.Rows {
		avg := cellFloat(t, r11, i, 1)
		if avg+1e-9 < prev {
			t.Errorf("avg fragmentation decreased: %f -> %f", prev, avg)
		}
		prev = avg
	}
}

func TestFig14JoinsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The join-vs-filter crossover needs enough nodes that the
	// single-property result set outnumbers a node's neighbors (the
	// paper's "more people in Ithaca than Alice has friends" argument),
	// so this experiment runs above the tiny default scale.
	fn := Experiments["fig14"]
	r, err := fn(Options{BaseBytes: 384 << 10, Ops: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.Format())
	losses := 0
	for i := range r.Rows {
		noJoin := cellFloat(t, r, i, 2)
		withJoin := cellFloat(t, r, i, 3)
		if noJoin < withJoin {
			losses++
			t.Logf("%s %s: no-join %.2f < with-join %.2f (marginal at this scale)",
				r.Rows[i][0], r.Rows[i][1], noJoin, withJoin)
		}
	}
	// The paper's no-join advantage holds wherever the single-property
	// result set outnumbers neighborhoods; at this scale the smallest
	// dataset's GS2 is marginal, so allow at most one inversion.
	if losses > 1 {
		t.Errorf("no-join plan lost %d of %d cases; paper: no-join wins", losses, len(r.Rows))
	}
}

func TestFig12RPQRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := runExperiment(t, "fig12")
	if len(r.Rows) != 50 {
		t.Fatalf("want 50 queries, got %d", len(r.Rows))
	}
}

func TestFig13BFSRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runExperiment(t, "fig13")
}

func TestFig6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := runExperiment(t, "fig6")
	if len(r.Rows) != 15 { // 3 datasets x 5 systems
		t.Fatalf("want 15 rows, got %d", len(r.Rows))
	}
}

// TestTelemetryCluster runs the live-cluster readout and checks the
// telemetry layer saw the function-shipping path: RPC calls recorded,
// nonzero fan-out on filtered neighbor queries.
func TestTelemetryCluster(t *testing.T) {
	r := runExperiment(t, "telemetry-cluster")
	cells := map[string]string{}
	for _, row := range r.Rows {
		cells[row[0]] = row[1]
	}
	for _, metric := range []string{"rpc calls (all methods)", "neighbor queries"} {
		v, ok := cells[metric]
		if !ok {
			t.Fatalf("missing row %q in:\n%s", metric, r.Format())
		}
		if v == "0" {
			t.Errorf("%s = 0, want > 0", metric)
		}
	}
	if _, ok := cells["avg fan-out per neighbor query"]; !ok {
		t.Errorf("no fan-out row — filtered neighbor queries never shipped:\n%s", r.Format())
	}
}

// TestTraceAttribution runs the distributed-tracing readout and checks
// the span trees attributed work to multiple servers with the expected
// phase taxonomy.
func TestTraceAttribution(t *testing.T) {
	r := runExperiment(t, "trace-attribution")
	servers := map[string]bool{}
	phases := map[string]bool{}
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], "server ") {
			servers[row[0]] = true
		}
		phases[row[1]] = true
	}
	if len(servers) < 2 {
		t.Errorf("phase rows from %d servers, want ≥2:\n%s", len(servers), r.Format())
	}
	for _, p := range []string{"queue", "serialize", "network", "decode", "succinct_walk"} {
		if !phases[p] {
			t.Errorf("no %q phase row:\n%s", p, r.Format())
		}
	}
	foundCoverage := false
	for _, n := range r.Notes {
		if strings.Contains(n, "coverage") {
			foundCoverage = true
			if strings.Contains(n, "of 0 server-side spans") {
				t.Errorf("no server-side spans measured: %s", n)
			}
		}
	}
	if !foundCoverage {
		t.Errorf("no serve-span coverage note in %v", r.Notes)
	}
}

func TestBuildSystemUnknown(t *testing.T) {
	d, err := datasetByName("orkut", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSystem("mystery", d, -1); err == nil {
		t.Error("unknown system should fail")
	}
	if _, err := datasetByName("nope", 1); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 23 {
		t.Fatalf("want 23 experiments, got %d: %v", len(names), names)
	}
}

func TestIngestBenchShape(t *testing.T) {
	r := runExperiment(t, "ingest-bench")
	// The experiment itself fails if any query answer changed across the
	// online compaction; assert the row reports that check ran.
	last := r.Rows[len(r.Rows)-1]
	if last[0] != "answers before/after compaction" || last[2] != "identical" {
		t.Errorf("answer-identity row missing or wrong: %v", last)
	}
	// Both throughput rows must carry a parseable ratio.
	for _, row := range r.Rows[:2] {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("row %q: want ratio cell, got %q", row[0], row[3])
		}
	}
}

func TestTemporalBenchShape(t *testing.T) {
	r := runExperiment(t, "temporal-bench")
	// The experiment hard-errors on sequence gaps with zero drops;
	// assert the acceptance rows beyond that: the narrow window must
	// prune at least half the fragment pieces, and the gap row must
	// report zero (nothing was dropped under a run-sized ring).
	rows := map[string][]string{}
	for _, row := range r.Rows {
		rows[row[0]] = row
	}
	narrow, ok := rows["window narrow (1/32 of range)"]
	if !ok {
		t.Fatalf("narrow-window row missing: %v", r.Rows)
	}
	var prunedPct int
	if _, err := fmt.Sscanf(narrow[2], "pruned %d%%", &prunedPct); err != nil {
		t.Fatalf("narrow-window detail unparseable: %q", narrow[2])
	}
	if prunedPct < 50 {
		t.Errorf("narrow window pruned %d%% of pieces, want >= 50%%", prunedPct)
	}
	if gaps := rows["sequence gaps"]; gaps == nil || gaps[1] != "0" {
		t.Errorf("sequence-gaps row missing or nonzero: %v", gaps)
	}
	if dropped := rows["events dropped"]; dropped == nil || dropped[1] != "0" {
		t.Errorf("events-dropped row missing or nonzero: %v", dropped)
	}
}

func TestAblationAlphaShape(t *testing.T) {
	r := runExperiment(t, "ablation-alpha")
	// Footprint ratio must be non-increasing in alpha.
	prev := 1e18
	for i := range r.Rows {
		fp := cellFloat(t, r, i, 1)
		if fp > prev+1e-9 {
			t.Errorf("footprint grew with alpha at row %d: %.3f -> %.3f", i, prev, fp)
		}
		prev = fp
	}
	// obj_get at the smallest alpha must not be grossly slower than at
	// the largest. (Cost-aware walker anchoring has flattened the
	// latency curve to within timing noise on a loaded 1-CPU box, so a
	// strict first<last comparison flakes; the footprint knob above is
	// the deterministic half of the trade-off.)
	first := cellFloat(t, r, 0, 2)
	last := cellFloat(t, r, len(r.Rows)-1, 2)
	if first > 2*last {
		t.Errorf("alpha latency knob inverted: obj_get %.2f (a=4) > 2x %.2f (a=128)", first, last)
	}
}

func TestAblationFannedShape(t *testing.T) {
	r := runExperiment(t, "ablation-fanned")
	fanned := findRow(t, r, "fanned-updates")
	broadcast := findRow(t, r, "broadcast")
	// Fragment counts identical; assoc_range reads faster with pointers.
	if r.Rows[fanned][1] != r.Rows[broadcast][1] {
		t.Fatalf("fragment counts differ: %s vs %s", r.Rows[fanned][1], r.Rows[broadcast][1])
	}
	if cellFloat(t, r, fanned, 3) <= cellFloat(t, r, broadcast, 3) {
		t.Errorf("fanned updates did not beat broadcast on assoc_range: %s vs %s",
			r.Rows[fanned][3], r.Rows[broadcast][3])
	}
}

func TestAblationLogStoreShape(t *testing.T) {
	r := runExperiment(t, "ablation-logstore")
	// Rollovers decrease as the threshold grows.
	prev := 1e18
	for i := range r.Rows {
		roll := cellFloat(t, r, i, 1)
		if roll > prev {
			t.Errorf("rollovers grew with threshold at row %d", i)
		}
		prev = roll
	}
	// Reads are fastest at the largest threshold (fewest fragments).
	if cellFloat(t, r, len(r.Rows)-1, 4) <= cellFloat(t, r, 0, 4) {
		t.Errorf("read throughput did not improve with fewer fragments")
	}
}

func TestAblationShardsRuns(t *testing.T) {
	r := runExperiment(t, "ablation-shards")
	if len(r.Rows) != 5 {
		t.Fatalf("want 5 shard counts, got %d", len(r.Rows))
	}
}

func TestParallelScalingShape(t *testing.T) {
	r := runExperiment(t, "parallel-scaling")
	if len(r.Rows) < 1 {
		t.Fatal("no worker-count rows")
	}
	if r.Rows[0][0] != "1" {
		t.Fatalf("first row should be the 1-worker baseline, got %q", r.Rows[0][0])
	}
	// The baseline row's speedups are 1.00x by construction.
	if r.Rows[0][2] != "1.00x" || r.Rows[0][4] != "1.00x" {
		t.Fatalf("baseline speedups != 1.00x: %v", r.Rows[0])
	}
}
