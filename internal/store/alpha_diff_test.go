package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
)

// buildFragmentedStore builds a store at the given α, then fragments
// it: appends force LogStore rollovers, updates create fanned pointers,
// and node plus edge deletes leave lazy marks. The mutation sequence is
// deterministic so every α's store holds the same logical graph.
func buildFragmentedStore(t *testing.T, alpha int) *Store {
	t.Helper()
	ns, es := testSchemas(t)
	nodes, edges := testGraph(60, 240, 3)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards:         3,
		SamplingRate:      alpha,
		LogStoreThreshold: 2 << 10, // tiny: force rollovers
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := int64(i * 2)
		if err := s.AppendNode(id, map[string]string{
			"age": fmt.Sprint(90 + i), "location": "Madison", "name": fmt.Sprintf("upd%d", i),
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendEdge(layout.Edge{
			Src: id, Dst: int64((i * 5) % 60), Type: 1, Timestamp: int64(20000 + i),
			Props: map[string]string{"weight": fmt.Sprint(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.DeleteNode(int64(i*7 + 1))
	}
	for _, e := range edges[:20] {
		s.DeleteEdges(e.Src, e.Type, e.Dst)
	}
	if s.Rollovers() == 0 {
		t.Fatal("test store failed to fragment (no rollovers)")
	}
	return s
}

// storeAnswers captures one store's answers to a fixed query battery.
type storeAnswers struct {
	props     [][]string
	oks       []bool
	neighbors [][]layout.NodeID
	finds     [][]layout.NodeID
	edges     []int
}

func queryBattery(t *testing.T, s *Store) storeAnswers {
	t.Helper()
	var a storeAnswers
	for id := int64(0); id < 60; id++ {
		vals, ok := s.GetNodeProps(id, nil)
		a.props = append(a.props, vals)
		a.oks = append(a.oks, ok)
		a.neighbors = append(a.neighbors, s.NeighborIDs(id, graphapi.WildcardType, nil))
	}
	for _, city := range []string{"Ithaca", "Berkeley", "Madison", "nowhere"} {
		a.finds = append(a.finds, s.FindNodes(map[string]string{"location": city}))
	}
	for w := 0; w < 5; w++ {
		a.edges = append(a.edges, len(s.FindEdges(map[string]string{"weight": fmt.Sprint(w)})))
	}
	return a
}

// TestCodecAlphaDifferential is the store-level differential suite: a
// fragmented store (rollovers, fanned updates, node and edge deletes)
// must answer an identical query battery at every α ∈ {4, 8, 32}, and
// again (against a post-compaction reference, since compaction
// legitimately changes what lazy deletion marks hide) after Compact.
// The first build is the reference — sampling never changes answers.
func TestCodecAlphaDifferential(t *testing.T) {
	var ref, refAfter *storeAnswers
	for _, alpha := range []int{4, 8, 32} {
		s := buildFragmentedStore(t, alpha)
		got := queryBattery(t, s)
		if ref == nil {
			ref = &got
		} else if !reflect.DeepEqual(*ref, got) {
			t.Fatalf("alpha=%d: answers diverged from reference", alpha)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		after := queryBattery(t, s)
		if refAfter == nil {
			refAfter = &after
		} else if !reflect.DeepEqual(*refAfter, after) {
			t.Fatalf("alpha=%d: answers diverged after compaction", alpha)
		}
	}
}

// TestCodecPersistDifferential: a fragmented store at every α survives
// Save/Load with identical answers and an identical region report.
func TestCodecPersistDifferential(t *testing.T) {
	for _, alpha := range []int{4, 8, 32} {
		s := buildFragmentedStore(t, alpha)
		want := queryBattery(t, s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryBattery(t, back); !reflect.DeepEqual(want, got) {
			t.Fatalf("alpha=%d: answers diverged across Save/Load", alpha)
		}
		if !reflect.DeepEqual(s.RegionReport(), back.RegionReport()) {
			t.Fatalf("alpha=%d: region report changed across Save/Load", alpha)
		}
	}
}

// TestRegionReport checks the admin region report: one header per
// fragment carrying its α, and under it the eight packed regions of a
// shard with their element counts and sizes.
func TestRegionReport(t *testing.T) {
	s := buildFragmentedStore(t, 8)
	report := s.RegionReport()
	if len(report) < 3 || report[0].Fragment != "primary/0" || report[0].Alpha != 8 {
		t.Fatalf("report head = %+v", report[0])
	}
	var names []string
	for _, r := range report[0].Regions {
		names = append(names, r.Name)
		if r.Elems <= 0 || r.Bytes <= 0 {
			t.Errorf("region %s: %d elems, %d bytes", r.Name, r.Elems, r.Bytes)
		}
	}
	want := []string{"node/psi", "node/sa", "node/isa", "edge/psi", "edge/sa", "edge/isa", "node/offsets", "edge/index"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("regions = %v, want %v", names, want)
	}
	text := FormatRegionReport(report)
	for _, line := range []string{"primary/0  alpha=8\n", "  node/psi "} {
		if !strings.Contains(text, line) {
			t.Errorf("formatted report missing %q:\n%s", line, text)
		}
	}
	if strings.Contains(text, "codec") || strings.Contains(text, "reads=") {
		t.Errorf("formatted report still carries codec or read columns:\n%s", text)
	}
}
