package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"zipg/internal/layout"
	"zipg/internal/succinct"
)

// preCodecShardWire is the shard wire shape written by every build
// since the hot-field record header: EdgeFormat is present and no codec
// field is. Gob matches by name, so encoding it reproduces an archive
// of that shape, and decoding a blob into it proves old readers can
// load what this build writes.
type preCodecShardWire struct {
	NodeStore    []byte
	EdgeStore    []byte
	NodeIDs      []int64
	NodeOffsets  []int64
	EdgeSrcs     []int64
	EdgeIndex    []layout.EdgeRecordIndex
	NodeSchema   layout.SchemaSpec
	EdgeSchema   layout.SchemaSpec
	RawNodeBytes int
	RawEdgeBytes int
	EdgeFormat   int
}

// checkShardsAgree asserts both shards answer node-property and edge
// queries identically.
func checkShardsAgree(t *testing.T, a, b *Shard, nodes []layout.Node) {
	t.Helper()
	for _, n := range nodes {
		pa, oka := a.Nodes().GetAllProps(n.ID)
		pb, okb := b.Nodes().GetAllProps(n.ID)
		if oka != okb || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("node %d: %v/%v vs %v/%v", n.ID, pa, oka, pb, okb)
		}
	}
	for _, src := range a.EdgeSources() {
		for etype := int64(0); etype < 2; etype++ {
			ra, oka := a.Edges().GetEdgeRecord(src, etype)
			rb, okb := b.Edges().GetEdgeRecord(src, etype)
			if oka != okb {
				t.Fatalf("record (%d,%d): %v vs %v", src, etype, oka, okb)
			}
			if !oka {
				continue
			}
			if ra.Count != rb.Count {
				t.Fatalf("record (%d,%d) counts: %d vs %d", src, etype, ra.Count, rb.Count)
			}
			for i := 0; i < ra.Count; i++ {
				da, err1 := a.Edges().GetEdgeData(&ra, i)
				db, err2 := b.Edges().GetEdgeData(&rb, i)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !reflect.DeepEqual(da, db) {
					t.Fatalf("record (%d,%d)[%d]: %+v vs %+v", src, etype, i, da, db)
				}
			}
		}
	}
	offA, okA := a.EdgeRecordOffset(a.EdgeSources()[0], 0)
	offB, okB := b.EdgeRecordOffset(a.EdgeSources()[0], 0)
	if okA != okB || offA != offB {
		t.Fatalf("EdgeRecordOffset diverged: %d/%v vs %d/%v", offA, okA, offB, okB)
	}
}

// TestPreCodecShardArchiveLoads proves archives of the pre-codec wire
// shape load and answer identically: a gob blob built from that struct
// (plain offsets, row-form edge index, ZSUC1 succinct stores) must
// reconstruct a working shard.
func TestPreCodecShardArchiveLoads(t *testing.T) {
	fresh, nodes, edges := buildTestShard(t)

	ns := fresh.Nodes().Schema()
	es := fresh.Edges().Schema()
	nodeFlat, ids, offs, err := layout.BuildNodeFile(nodes, ns)
	if err != nil {
		t.Fatal(err)
	}
	edgeFlat, edgeIndex, err := layout.BuildEdgeFileFormat(edges, es, layout.EdgeFormatHot)
	if err != nil {
		t.Fatal(err)
	}
	opts := succinct.Options{SamplingRate: 4}
	w := preCodecShardWire{
		NodeStore:    succinct.Build(nodeFlat, opts).MarshalBinary(),
		EdgeStore:    succinct.Build(edgeFlat, opts).MarshalBinary(),
		NodeIDs:      ids,
		NodeOffsets:  offs,
		EdgeSrcs:     distinctSources(edges),
		EdgeIndex:    edgeIndex,
		NodeSchema:   ns.Spec(),
		EdgeSchema:   es.Spec(),
		RawNodeBytes: len(nodeFlat),
		RawEdgeBytes: len(edgeFlat),
		EdgeFormat:   layout.EdgeFormatHot,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}

	loaded, err := UnmarshalShard(buf.Bytes(), nil)
	if err != nil {
		t.Fatalf("pre-codec archive failed to load: %v", err)
	}
	checkShardsAgree(t, fresh, loaded, nodes)
}

// TestLegacyShardWireIsPreCodecShape: a shard must marshal into the
// gob shape pre-codec builds wrote — every field populated — so old
// readers can load archives written by this build.
func TestLegacyShardWireIsPreCodecShape(t *testing.T) {
	ns := mustSchema(t, []string{"city", "name"})
	es := mustSchema(t, []string{"w"})
	_, nodes, edges := buildTestShard(t)
	sh, err := Build(nodes, edges, ns, es, Options{SamplingRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w preCodecShardWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.NodeOffsets) == 0 || len(w.EdgeIndex) == 0 {
		t.Fatalf("legacy shard marshaled without legacy fields (offsets=%d index=%d)",
			len(w.NodeOffsets), len(w.EdgeIndex))
	}
	if !reflect.DeepEqual(w.NodeOffsets, sh.Nodes().Offsets()) || !reflect.DeepEqual(w.EdgeIndex, sh.edgeIndexSlice()) {
		t.Fatal("wire index columns differ from the shard's")
	}
}

// TestCodecShardRoundTrip: shards built at every α round-trip through
// Marshal/Unmarshal preserving α, answers and every region's size.
func TestCodecShardRoundTrip(t *testing.T) {
	ns := mustSchema(t, []string{"city", "name"})
	es := mustSchema(t, []string{"w"})
	_, nodes, edges := buildTestShard(t)
	for _, alpha := range []int{4, 8, 32} {
		sh, err := Build(nodes, edges, ns, es, Options{SamplingRate: alpha})
		if err != nil {
			t.Fatalf("alpha %d: %v", alpha, err)
		}
		blob, err := sh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalShard(blob, nil)
		if err != nil {
			t.Fatalf("alpha %d: unmarshal: %v", alpha, err)
		}
		checkShardsAgree(t, sh, back, nodes)
		if back.SamplingRate() != alpha {
			t.Errorf("alpha %d: reloaded shard samples at %d", alpha, back.SamplingRate())
		}
		if !reflect.DeepEqual(sh.Regions(), back.Regions()) {
			t.Errorf("alpha %d: regions changed on reload:\n%+v\n%+v", alpha, sh.Regions(), back.Regions())
		}
	}
}

// codecShapedShardWire is the wire shape an earlier build wrote when a
// non-legacy integer codec won a region: codec-tagged offset columns in
// place of NodeOffsets and EdgeIndex.
type codecShapedShardWire struct {
	NodeStore      []byte
	EdgeStore      []byte
	NodeIDs        []int64
	EdgeSrcs       []int64
	NodeSchema     layout.SchemaSpec
	EdgeSchema     layout.SchemaSpec
	RawNodeBytes   int
	RawEdgeBytes   int
	EdgeFormat     int
	NodeOffsetsEnc []byte
	EdgeIdxSrcs    []int64
	EdgeIdxTypes   []int64
	EdgeIdxOffsEnc []byte
}

// TestUnmarshalShardRejectsMalformedIndex mutates the index columns of
// a valid shard — offsets non-monotone, too short, missing, or past the
// file, for the NodeFile and the EdgeFile index — plus a codec-shaped
// blob whose offsets gob drops. Every one must return an error: no
// panic at load or at the first query, and no silent load.
func TestUnmarshalShardRejectsMalformedIndex(t *testing.T) {
	sh, _, _ := buildTestShard(t)
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decode := func() shardWire {
		var w shardWire
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		return w
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mutations := map[string]func(w *shardWire){
		"node_non_monotone": func(w *shardWire) { w.NodeOffsets[3], w.NodeOffsets[4] = w.NodeOffsets[4], w.NodeOffsets[3] },
		"node_short":        func(w *shardWire) { w.NodeOffsets = w.NodeOffsets[:len(w.NodeOffsets)-3] },
		"node_nil":          func(w *shardWire) { w.NodeOffsets = nil },
		"node_past_end":     func(w *shardWire) { w.NodeOffsets[len(w.NodeOffsets)-1] = 1 << 40 },
		"edge_non_monotone": func(w *shardWire) {
			w.EdgeIndex[3].Offset, w.EdgeIndex[4].Offset = w.EdgeIndex[4].Offset, w.EdgeIndex[3].Offset
		},
		"edge_short":    func(w *shardWire) { w.EdgeIndex = w.EdgeIndex[:len(w.EdgeSrcs)-1] },
		"edge_nil":      func(w *shardWire) { w.EdgeIndex = nil },
		"edge_past_end": func(w *shardWire) { w.EdgeIndex[len(w.EdgeIndex)-1].Offset = 1 << 40 },
	}
	blobs := map[string][]byte{}
	for name, mutate := range mutations {
		w := decode()
		mutate(&w)
		blobs[name] = encode(w)
	}
	w := decode()
	blobs["codec_shaped"] = encode(codecShapedShardWire{
		NodeStore: w.NodeStore, EdgeStore: w.EdgeStore, NodeIDs: w.NodeIDs, EdgeSrcs: w.EdgeSrcs,
		NodeSchema: w.NodeSchema, EdgeSchema: w.EdgeSchema,
		RawNodeBytes: w.RawNodeBytes, RawEdgeBytes: w.RawEdgeBytes, EdgeFormat: w.EdgeFormat,
		NodeOffsetsEnc: []byte{1, 2, 3},
		EdgeIdxSrcs:    w.EdgeSrcs,
		EdgeIdxTypes:   make([]int64, len(w.EdgeSrcs)),
		EdgeIdxOffsEnc: []byte{1, 2, 3},
	})

	for name, b := range blobs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			back, err := UnmarshalShard(b, nil)
			if err == nil {
				// Touch the index the way queries do before failing, so a
				// silent load that would panic later is reported as such.
				back.Nodes().GetAllProps(0)
				t.Errorf("%s: loaded without error", name)
			}
		}()
	}
}

func mustSchema(t *testing.T, ids []string) *layout.PropertySchema {
	t.Helper()
	s, err := layout.NewPropertySchema(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
