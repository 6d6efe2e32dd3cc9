package store

import (
	"fmt"
	"runtime"
	"sort"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// Compact is the periodic garbage collection of §4.1: it merges every
// fragment — the primary shards, all frozen generations and the live
// LogStore — into fresh primary shards, physically dropping
// lazily-deleted nodes and edges and resetting every update pointer.
// After compaction each node's data is whole again (FragmentsOf returns
// 1 for every node) and reads touch exactly one shard.
//
// Compaction is online: the store's write lock is held only for two
// brief windows (both observed into zipg_compaction_pause_ns) —
//
//	Phase 1 (seal + snapshot): seal the live LogStore into an immutable
//	  raw generation, snapshot the fragment set and the deletion state,
//	  and turn on delete-replay recording.
//	Phase 2 (rebuild, NO store lock): materialize the live graph from
//	  the immutable snapshot and build fresh primary shards on the
//	  shared worker pool. Queries and writes proceed concurrently; the
//	  paper runs GC "in the background on dedicated capacity" — this is
//	  that, minus the dedicated capacity.
//	Phase 3 (swap): install the fresh primaries, drop the consumed
//	  generations, renumber the survivors (generations sealed during
//	  the rebuild), remap update pointers, and replay the deletes that
//	  arrived during the rebuild onto the fresh shards so nothing
//	  deleted is resurrected.
//
// Appends never need replay: an append lands in the live LogStore,
// which is by construction newer than every generation the rebuild
// consumed. Deletes do — a delete during the rebuild targets data the
// rebuild is busy baking into the fresh primaries — so they are
// recorded (s.replay*) and re-applied at swap as lazy deletion marks.
//
// buildMu serializes Compact with the background worker's generation
// compression: at most one rebuild is in flight, which is what lets
// the replay log attribute its entries to exactly one pending swap.
func (s *Store) Compact() error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	tm := telemetry.StartTimer()
	defer func() {
		mCompactions.Inc()
		tm.ObserveInto(mCompactionNs)
	}()

	// Phase 1: seal + snapshot under a brief write lock.
	pause := telemetry.StartTimer()
	s.mu.Lock()
	s.sealForCompactLocked()
	snap := s.snapshotForCompactLocked()
	s.replaying = true
	s.replayEdgeDels = nil
	s.replayNodeDels = make(map[layout.NodeID]bool)
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)

	// Phase 2: rebuild outside the store lock.
	fresh, err := snap.build(s)
	if err != nil {
		s.mu.Lock()
		s.replaying = false
		s.replayEdgeDels = nil
		s.replayNodeDels = nil
		s.mu.Unlock()
		return err
	}

	// Phase 3: swap under a brief write lock.
	pause = telemetry.StartTimer()
	s.mu.Lock()
	s.swapCompactedLocked(snap, fresh)
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)
	return nil
}

// compactSnapshot is the immutable fragment-epoch a rebuild runs
// against: the fragment set as of the seal, with the deletion state
// deep-copied so concurrent deletes (which mutate the live maps) can't
// leak into the materialized graph mid-pass.
type compactSnapshot struct {
	primaries    []*core.Shard
	frozen       []fragment
	cut          int // == len(frozen): generations the rebuild consumes
	deletedNodes map[layout.NodeID]bool
	deletedPhys  map[shardEdgeRef]map[int]bool
	rawDels      map[*logstore.LogStore]map[edgeTriple]bool
}

// sealForCompactLocked freezes the live LogStore into a raw generation
// so the whole pre-compaction state is immutable. Unlike a threshold
// rollover this is not counted in Rollovers() — it is bookkeeping
// internal to one compaction, not a capacity event. Callers hold s.mu.
func (s *Store) sealForCompactLocked() {
	frozen := make([]fragment, len(s.frozen), len(s.frozen)+1)
	copy(frozen, s.frozen)
	s.frozen = append(frozen, fragment{raw: s.log})
	s.log = logstore.New(s.nodeSchema, s.edgeSchema, s.cfg.Medium, len(s.frozen))
}

// snapshotForCompactLocked captures the rebuild's input epoch. The
// shard and fragment slices are copy-on-write (safe to hold as-is);
// the deletion maps are mutable and get deep-copied. Callers hold s.mu.
func (s *Store) snapshotForCompactLocked() *compactSnapshot {
	snap := &compactSnapshot{
		primaries:    s.primaries,
		frozen:       s.frozen,
		cut:          len(s.frozen),
		deletedNodes: make(map[layout.NodeID]bool, len(s.deletedNodes)),
		deletedPhys:  make(map[shardEdgeRef]map[int]bool, len(s.deletedPhys)),
		rawDels:      make(map[*logstore.LogStore]map[edgeTriple]bool, len(s.rawDels)),
	}
	for id := range s.deletedNodes {
		snap.deletedNodes[id] = true
	}
	for k, m := range s.deletedPhys {
		snap.deletedPhys[k] = copyDeleted(m)
	}
	for raw, m := range s.rawDels {
		cp := make(map[edgeTriple]bool, len(m))
		for t := range m {
			cp[t] = true
		}
		snap.rawDels[raw] = cp
	}
	return snap
}

// build materializes the snapshot's live graph and compresses it into
// fresh primary shards on the shared pool. No store lock is held.
func (c *compactSnapshot) build(s *Store) ([]*core.Shard, error) {
	nodes, edges, err := c.materialize(s)
	if err != nil {
		return nil, err
	}
	partNodes := make([][]layout.Node, s.cfg.NumShards)
	partEdges := make([][]layout.Edge, s.cfg.NumShards)
	for _, n := range nodes {
		p := s.partitionOf(n.ID)
		partNodes[p] = append(partNodes[p], n)
	}
	for _, e := range edges {
		p := s.partitionOf(e.Src)
		partEdges[p] = append(partEdges[p], e)
	}
	fresh, err := parallel.MapErr("store.compact_shards", s.cfg.NumShards, func(p int) (*core.Shard, error) {
		sh, err := core.Build(partNodes[p], partEdges[p], s.nodeSchema, s.edgeSchema,
			core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
		if err != nil {
			return nil, fmt.Errorf("store: compact shard %d: %w", p, err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	return fresh, nil
}

// swapCompactedLocked installs the rebuilt primaries: drop the
// consumed generations, renumber the survivors, remap update pointers
// and replay the deletes recorded during the rebuild. Callers hold
// s.mu.
func (s *Store) swapCompactedLocked(snap *compactSnapshot, fresh []*core.Shard) {
	cut := snap.cut
	s.primaries = fresh
	// Generations sealed during the rebuild survive, renumbered down by
	// cut; so does the live log (its generation is implicitly
	// len(s.frozen) — see curGenLocked).
	s.frozen = append([]fragment(nil), s.frozen[cut:]...)
	for id, gens := range s.ptrs {
		var ng []int
		for _, g := range gens {
			if g >= cut {
				ng = append(ng, g-cut)
			}
		}
		if len(ng) == 0 {
			delete(s.ptrs, id)
		} else {
			s.ptrs[id] = ng
		}
	}
	// Deletion state: everything the rebuild consumed was filtered
	// during materialize, so only marks shadowing *post-snapshot* data
	// survive — node deletes recorded during the rebuild (if still in
	// force), physical marks on shards still referenced, tombstones on
	// raw generations still referenced.
	deletedNodes := make(map[layout.NodeID]bool)
	for id := range s.replayNodeDels {
		if s.deletedNodes[id] {
			deletedNodes[id] = true
		}
	}
	s.deletedNodes = deletedNodes
	liveShards := make(map[*core.Shard]bool, len(fresh)+len(s.frozen))
	for _, sh := range fresh {
		liveShards[sh] = true
	}
	liveRaws := make(map[*logstore.LogStore]bool, len(s.frozen))
	for _, f := range s.frozen {
		if f.shard != nil {
			liveShards[f.shard] = true
		}
		if f.raw != nil {
			liveRaws[f.raw] = true
		}
	}
	for key := range s.deletedPhys {
		if !liveShards[key.shard] {
			delete(s.deletedPhys, key)
		}
	}
	for raw := range s.rawDels {
		if !liveRaws[raw] {
			delete(s.rawDels, raw)
		}
	}
	// Replay: deletes that arrived during the rebuild targeted data the
	// rebuild was baking into the fresh primaries; re-apply them there
	// as lazy marks. (Data appended after the seal lives in newer
	// fragments, which the delete already handled directly — replay
	// touches only the fresh shards, so it cannot kill a re-append.)
	for _, t := range s.replayEdgeDels {
		for _, sh := range fresh {
			s.markShardEdgesLocked(sh, t)
		}
	}
	s.replaying = false
	s.replayEdgeDels = nil
	s.replayNodeDels = nil
	s.rolloversSinceCompact = 0
}

// markShardEdgesLocked lazily deletes every (src, etype, dst) edge
// held by one compressed shard. Callers hold s.mu.
func (s *Store) markShardEdgesLocked(sh *core.Shard, t edgeTriple) int {
	ref, ok := sh.Edges().GetEdgeRecord(t.src, t.etype)
	if !ok {
		return 0
	}
	key := shardEdgeRef{sh, t.src, t.etype}
	n := 0
	for i, d := range sh.Edges().Destinations(&ref) {
		if d != t.dst || s.deletedPhys[key][i] {
			continue
		}
		if s.deletedPhys[key] == nil {
			s.deletedPhys[key] = make(map[int]bool)
		}
		s.deletedPhys[key][i] = true
		n++
	}
	return n
}

// materialize reconstructs the snapshot's live logical graph: every
// live node's current property list and every live edge. It runs
// against the immutable snapshot only — no store lock is held — and
// its output is deterministic: nodes ascend by ID, edges are sorted by
// (src, type, timestamp, dst) with collection order breaking ties, so
// two rebuilds of the same snapshot produce byte-identical shards.
func (c *compactSnapshot) materialize(s *Store) ([]layout.Node, []layout.Edge, error) {
	// Collect candidate node IDs from every fragment.
	ids := make(map[layout.NodeID]bool)
	for _, sh := range c.primaries {
		for _, id := range sh.Nodes().IDs() {
			ids[id] = true
		}
	}
	for _, f := range c.frozen {
		if f.raw != nil {
			rawNodes, _ := f.raw.Contents()
			for _, n := range rawNodes {
				ids[n.ID] = true
			}
			continue
		}
		for _, id := range f.shard.Nodes().IDs() {
			ids[id] = true
		}
	}
	// A node with edges but no property record anywhere still exists
	// (implicit endpoints); its edges are discovered below and need no
	// node record entry here beyond what resolution finds.

	sorted := make([]layout.NodeID, 0, len(ids))
	for id := range ids {
		if !c.deletedNodes[id] {
			sorted = append(sorted, id)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var nodes []layout.Node
	for i, id := range sorted {
		// The rebuild is a CPU-bound background pass racing foreground
		// queries; yield regularly so their latency stays bounded by the
		// gap between yields, not the scheduler's preemption quantum.
		if i&63 == 63 {
			runtime.Gosched()
		}
		props, ok := c.resolveNode(s, id)
		if !ok {
			continue
		}
		nodes = append(nodes, layout.Node{ID: id, Props: props})
	}

	// Edges: walk every (src, etype) record in every fragment, honoring
	// physical deletion marks and raw-generation tombstones.
	var edges []layout.Edge
	appendFromShard := func(sh *core.Shard) error {
		for si, src := range sh.EdgeSources() {
			if si&63 == 63 {
				runtime.Gosched() // see the node loop above
			}
			if c.deletedNodes[src] {
				continue
			}
			for _, ref := range sh.Edges().GetEdgeRecords(src) {
				deleted := c.deletedPhys[shardEdgeRef{sh, src, ref.Type}]
				for i := 0; i < ref.Count; i++ {
					if deleted[i] {
						continue
					}
					d, err := sh.Edges().GetEdgeData(&ref, i)
					if err != nil {
						return fmt.Errorf("store: compact: edge (%d,%d)[%d]: %w", src, ref.Type, i, err)
					}
					edges = append(edges, layout.Edge{
						Src: src, Dst: d.Dst, Type: ref.Type,
						Timestamp: d.Timestamp, Props: d.Props,
					})
				}
			}
		}
		return nil
	}
	for _, sh := range c.primaries {
		if err := appendFromShard(sh); err != nil {
			return nil, nil, err
		}
	}
	for _, f := range c.frozen {
		if f.raw != nil {
			dels := c.rawDels[f.raw]
			_, rawEdges := f.raw.Contents()
			for _, e := range rawEdges {
				if c.deletedNodes[e.Src] || dels[edgeTriple{e.Src, e.Type, e.Dst}] {
					continue
				}
				edges = append(edges, e)
			}
			continue
		}
		if err := appendFromShard(f.shard); err != nil {
			return nil, nil, err
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Type != edges[j].Type {
			return edges[i].Type < edges[j].Type
		}
		if edges[i].Timestamp != edges[j].Timestamp {
			return edges[i].Timestamp < edges[j].Timestamp
		}
		return edges[i].Dst < edges[j].Dst
	})
	return nodes, edges, nil
}

// resolveNode returns the newest live property map for id within the
// snapshot. Update pointers are not needed: generations are walked
// newest-first (every frozen generation is newer than the primaries),
// so the first record found is the current version.
func (c *compactSnapshot) resolveNode(s *Store, id layout.NodeID) (map[string]string, bool) {
	for g := len(c.frozen) - 1; g >= 0; g-- {
		if raw := c.frozen[g].raw; raw != nil {
			if props, ok := raw.NodeProps(id); ok {
				return props, true
			}
			continue
		}
		if props, ok := c.frozen[g].shard.Nodes().GetAllProps(id); ok {
			return props, true
		}
	}
	return c.primaries[s.partitionOf(id)].Nodes().GetAllProps(id)
}
