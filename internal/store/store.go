// Package store implements the single-machine ZipG store: hash-
// partitioned compressed shards (§4.1), a single rolling LogStore for
// writes, fanned update pointers that route queries to exactly the
// fragments holding a node's data (§3.5), and lazy deletes.
//
// Mutable state (update pointers, deletion marks, the LogStore) is
// guarded by one RWMutex; compressed shards are immutable and read
// lock-free — matching the paper's concurrency-control design (§4.1).
package store

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/memsim"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// DefaultLogStoreThreshold is the LogStore size that triggers a freeze
// into a compressed shard. The paper used 8 GB on its clusters; the
// default here is scaled to this repository's MB-scale datasets.
const DefaultLogStoreThreshold = 4 << 20

// Config parameterizes a Store.
type Config struct {
	// NumShards is the number of initial hash partitions (the paper's
	// default is one per core). 0 means 1.
	NumShards int
	// SamplingRate is Succinct's α for compressed shards (0 = default).
	SamplingRate int
	// Medium simulates the storage the store's data lives on
	// (nil = unlimited).
	Medium *memsim.Medium
	// LogStoreThreshold triggers rollover (0 = DefaultLogStoreThreshold).
	LogStoreThreshold int64
	// DisableFannedUpdates makes reads consult every fragment instead of
	// following update pointers — the strawman §3.5 argues against.
	// Exists only for the ablation benchmark.
	DisableFannedUpdates bool
	// DisableGroupCommit makes every append take the store lock
	// individually (the pre-group-commit write path). Exists for the
	// ingest-bench ablation; leave false in production.
	DisableGroupCommit bool
	// BackgroundCompaction moves LogStore rollover compression off the
	// write path: crossing the threshold seals the log into a raw
	// frozen generation (O(1) under the lock) and a background worker
	// compresses it. Implied by CompactInterval/CompactAfterRollovers.
	BackgroundCompaction bool
	// CompactInterval, when positive, runs a full online compaction
	// every interval on the background worker.
	CompactInterval time.Duration
	// CompactAfterRollovers, when positive, runs a full online
	// compaction once that many rollovers have accumulated since the
	// last one.
	CompactAfterRollovers int
	// EventTailLen is the per-partition change-event tail capacity
	// backing Catchup replay (0 = DefaultEventTailLen). See events.go.
	EventTailLen int
}

// backgroundEnabled reports whether the configuration asks for the
// background compaction worker.
func (c Config) backgroundEnabled() bool {
	return c.BackgroundCompaction || c.CompactInterval > 0 || c.CompactAfterRollovers > 0
}

type shardEdgeRef struct {
	shard *core.Shard
	src   layout.NodeID
	etype layout.EdgeType
}

// edgeTriple names one logical delete target: every (src, etype, dst)
// edge. It keys the tombstones laid over sealed raw generations and
// the replay log an online compaction applies at swap.
type edgeTriple struct {
	src   layout.NodeID
	etype layout.EdgeType
	dst   layout.NodeID
}

// fragment is one frozen generation: either a compressed shard or a
// sealed raw LogStore awaiting background compression. Exactly one
// field is non-nil. Fragments are immutable values — every change to
// s.frozen replaces the whole slice (copy-on-write), so readers may
// snapshot the slice header under RLock and keep using it lock-free.
type fragment struct {
	shard *core.Shard
	raw   *logstore.LogStore
}

// Store is a complete single-machine ZipG instance.
type Store struct {
	cfg        Config
	nodeSchema *layout.PropertySchema
	edgeSchema *layout.PropertySchema

	// buildMu serializes heavyweight rebuilds: background compression
	// of sealed generations and online compactions. At most one build
	// is in flight, which is what lets the delete-replay log attribute
	// its entries to exactly one pending swap.
	buildMu sync.Mutex

	mu sync.RWMutex
	// primaries are the current hash partitions. The slice is replaced
	// wholesale (never mutated in place) so read paths may snapshot it
	// under RLock and use it lock-free.
	primaries    []*core.Shard
	frozen       []fragment // rolled-over LogStores, generation order; COW
	log          *logstore.LogStore
	ptrs         map[layout.NodeID][]int // update pointers: node -> generations
	deletedNodes map[layout.NodeID]bool
	deletedPhys  map[shardEdgeRef]map[int]bool // lazily deleted edges in shards
	// rawDels tombstones deletes against sealed raw generations (which
	// are immutable, so their entries cannot be removed in place).
	// Keyed by the sealed LogStore pointer: stable across the
	// generation renumbering a compaction swap performs.
	rawDels map[*logstore.LogStore]map[edgeTriple]bool

	// Delete-replay state for the single in-flight build (see buildMu):
	// deletes that land while a rebuild runs against an older snapshot
	// are recorded here and re-applied to the freshly built fragments
	// at swap, so a rebuild never resurrects deleted data.
	replaying      bool
	replayEdgeDels []edgeTriple
	replayNodeDels map[layout.NodeID]bool

	rollovers int
	// rolloversSinceCompact drives the background compaction trigger.
	rolloversSinceCompact int

	// events is the change-event state: per-partition sequence counters,
	// bounded tail rings and observers (see events.go). Mutated under
	// s.mu so event order matches mutation visibility order.
	events eventLog

	// wc is the group-commit coordinator for the append path.
	wc writeCoordinator
	// bg is the background compaction worker (nil unless enabled).
	bg        *backgroundCompactor
	closeOnce sync.Once
}

// New builds a store over the initial graph, hash-partitioning nodes (and
// their incident edges) across cfg.NumShards compressed shards.
func New(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, cfg Config) (*Store, error) {
	if cfg.NumShards <= 0 {
		cfg.NumShards = 1
	}
	if cfg.LogStoreThreshold <= 0 {
		cfg.LogStoreThreshold = DefaultLogStoreThreshold
	}
	s := &Store{
		cfg:          cfg,
		nodeSchema:   nodeSchema,
		edgeSchema:   edgeSchema,
		ptrs:         make(map[layout.NodeID][]int),
		deletedNodes: make(map[layout.NodeID]bool),
		deletedPhys:  make(map[shardEdgeRef]map[int]bool),
		rawDels:      make(map[*logstore.LogStore]map[edgeTriple]bool),
	}
	s.wc.init(cfg.NumShards)
	s.events.init(cfg.NumShards, cfg.EventTailLen)

	partNodes := make([][]layout.Node, cfg.NumShards)
	partEdges := make([][]layout.Edge, cfg.NumShards)
	for _, n := range nodes {
		p := s.partitionOf(n.ID)
		partNodes[p] = append(partNodes[p], n)
	}
	for _, e := range edges {
		// All edge data for a node is co-located with the node (§4.1).
		p := s.partitionOf(e.Src)
		partEdges[p] = append(partEdges[p], e)
	}
	opts := core.Options{SamplingRate: cfg.SamplingRate, Medium: cfg.Medium}
	// Independent shards compress concurrently (each suffix-array build
	// stays sequential internally); the paper builds one shard per core.
	shards, err := parallel.MapErr("store.build_shards", cfg.NumShards, func(p int) (*core.Shard, error) {
		sh, err := core.Build(partNodes[p], partEdges[p], nodeSchema, edgeSchema, opts)
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", p, err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	s.primaries = shards
	s.log = logstore.New(nodeSchema, edgeSchema, cfg.Medium, 0)
	if cfg.backgroundEnabled() {
		s.bg = startBackground(s, cfg.CompactInterval)
	}
	return s, nil
}

// Close stops the background compaction worker (if any) and waits for
// an in-flight rebuild to finish. Safe to call multiple times; a store
// without background compaction needs no Close.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.bg != nil {
			s.bg.stop()
		}
		// Wait out any rebuild still holding the build lock.
		s.buildMu.Lock()
		s.buildMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	})
}

// partitionOf returns the primary shard index for a node ID. The
// inlined FNV-1a (layout.IDHash) is bit-identical to the hash/fnv
// hasher this used to allocate per call.
func (s *Store) partitionOf(id layout.NodeID) int {
	return int(layout.IDHash(id) % uint32(s.cfg.NumShards))
}

// NodeSchema returns the node property schema.
func (s *Store) NodeSchema() *layout.PropertySchema { return s.nodeSchema }

// EdgeSchema returns the edge property schema.
func (s *Store) EdgeSchema() *layout.PropertySchema { return s.edgeSchema }

// curGen returns the current LogStore generation. Callers hold s.mu.
func (s *Store) curGenLocked() int { return len(s.frozen) }

// addPtrLocked records that gen holds data for node id.
func (s *Store) addPtrLocked(id layout.NodeID, gen int) {
	gens := s.ptrs[id]
	for _, g := range gens {
		if g == gen {
			return
		}
	}
	s.ptrs[id] = append(gens, gen)
}

// AppendNode inserts a new node or replaces an existing node's property
// list (Table 1's append(nodeID, PropertyList); updates are
// delete-followed-by-append per §3.5, which this implements atomically).
//
// Validation and serialization-size accounting run outside any lock;
// publication rides the group committer: the writer enqueues a
// prepared put on its partition's queue and either leads one commit
// (draining every queue into the LogStore in a single short critical
// section) or waits for a concurrent leader to publish it. The
// LogStore append and the update-pointer write still land under the
// same store-lock acquisition: a rollover sneaking between them would
// freeze the data into generation g while the pointer records g+1,
// losing the write.
func (s *Store) AppendNode(id layout.NodeID, props map[string]string) error {
	mOpAppendNode.Inc()
	put, err := logstore.PrepareNodePut(s.nodeSchema, id, props)
	if err != nil {
		return err
	}
	if s.cfg.DisableGroupCommit {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.log.AddNode(id, props); err != nil {
			return err
		}
		delete(s.deletedNodes, id)
		s.addPtrLocked(id, s.curGenLocked())
		s.emitLocked([]Event{{Part: s.partitionOf(id), Kind: EvNodePut, Node: id, Props: props}})
		return s.maybeRolloverLocked()
	}
	return s.submitWrite(s.partitionOf(id), put)
}

// AppendEdge appends one edge (Table 1's append(nodeID, edgeType,
// edgeRecord)). Endpoints that have no node record yet get an empty one
// — the shared semantics across every system in this repository (Neo4j
// and Titan both auto-create endpoints). See AppendNode for the locking
// discipline.
func (s *Store) AppendEdge(e layout.Edge) error {
	mOpAppendEdge.Inc()
	put, err := logstore.PrepareEdgePut(s.edgeSchema, e)
	if err != nil {
		return err
	}
	for _, id := range []layout.NodeID{e.Src, e.Dst} {
		if !s.HasNode(id) {
			if err := s.AppendNode(id, nil); err != nil {
				return err
			}
		}
	}
	if s.cfg.DisableGroupCommit {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.log.AddEdge(e); err != nil {
			return err
		}
		s.addPtrLocked(e.Src, s.curGenLocked())
		s.emitLocked([]Event{{Part: s.partitionOf(e.Src), Kind: EvEdgeAdd, Node: e.Src, Edge: e}})
		return s.maybeRolloverLocked()
	}
	return s.submitWrite(s.partitionOf(e.Src), put)
}

// DeleteNode lazily deletes a node: reads of its properties and edges
// miss from now on. Re-appending the node restores it (and any edges
// that were not individually deleted).
func (s *Store) DeleteNode(id layout.NodeID) {
	mOpDeleteNode.Inc()
	s.mu.Lock()
	s.deletedNodes[id] = true
	// Under the store lock: a rollover swaps s.log, so reading it
	// outside would race (and could drop the removal into a log that
	// was just frozen).
	s.log.RemoveNode(id)
	if s.replaying {
		if s.replayNodeDels == nil {
			s.replayNodeDels = make(map[layout.NodeID]bool)
		}
		s.replayNodeDels[id] = true
	}
	// Tombstone event under the same lock that made the delete visible:
	// subscribers (and Catchup replay) observe deletes in exactly the
	// order readers started missing the node.
	s.emitLocked([]Event{{Part: s.partitionOf(id), Kind: EvNodeDel, Node: id}})
	s.mu.Unlock()
}

// DeleteEdges deletes all (src, etype, dst) edges (Table 1's
// delete(nodeID, edgeType, destinationID)): LogStore entries are removed
// directly; compressed fragments get lazy per-position deletion marks;
// sealed raw generations (immutable) get triple-level tombstones.
func (s *Store) DeleteEdges(src layout.NodeID, etype layout.EdgeType, dst layout.NodeID) int {
	mOpDeleteEdges.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	// s.log is only stable under the store lock (rollover swaps it).
	removed := s.log.RemoveEdges(src, etype, dst)
	for _, f := range s.fragmentsOfLocked(src) {
		if f.raw != nil {
			removed += s.tombstoneRawLocked(f.raw, src, etype, dst)
			continue
		}
		sh := f.shard
		ref, ok := sh.Edges().GetEdgeRecord(src, etype)
		if !ok {
			continue
		}
		key := shardEdgeRef{sh, src, etype}
		dsts := sh.Edges().Destinations(&ref)
		for i, d := range dsts {
			if d != dst || s.deletedPhys[key][i] {
				continue
			}
			if s.deletedPhys[key] == nil {
				s.deletedPhys[key] = make(map[int]bool)
			}
			s.deletedPhys[key][i] = true
			removed++
		}
	}
	if s.replaying {
		// A rebuild is running against an older snapshot; record the
		// delete so the swap re-applies it to the fresh fragments.
		s.replayEdgeDels = append(s.replayEdgeDels, edgeTriple{src, etype, dst})
	}
	s.emitLocked([]Event{{
		Part: s.partitionOf(src), Kind: EvEdgeDel, Node: src,
		Edge: layout.Edge{Src: src, Type: etype, Dst: dst},
	}})
	return removed
}

// tombstoneRawLocked records a delete against one sealed raw generation
// and returns how many live edge entries it newly shadows. Callers hold
// s.mu.
func (s *Store) tombstoneRawLocked(raw *logstore.LogStore, src layout.NodeID, etype layout.EdgeType, dst layout.NodeID) int {
	t := edgeTriple{src, etype, dst}
	if s.rawDels[raw][t] {
		return 0
	}
	n := raw.CountEdges(src, etype, dst)
	if n == 0 {
		return 0
	}
	if s.rawDels[raw] == nil {
		s.rawDels[raw] = make(map[edgeTriple]bool)
	}
	s.rawDels[raw][t] = true
	return n
}

// fragmentsOfLocked returns the frozen fragments that may hold data for
// a node: its primary shard plus every frozen generation its update
// pointers name (or, with fanned updates disabled, every frozen
// fragment). Callers hold s.mu.
func (s *Store) fragmentsOfLocked(id layout.NodeID) []fragment {
	out := []fragment{{shard: s.primaries[s.partitionOf(id)]}}
	if s.cfg.DisableFannedUpdates {
		return append(out, s.frozen...)
	}
	for _, g := range s.ptrs[id] {
		if g < len(s.frozen) {
			out = append(out, s.frozen[g])
		}
	}
	return out
}

// maybeRolloverLocked freezes the LogStore into a new frozen generation
// when it crosses the threshold. With background compaction enabled the
// freeze is O(1): the live log is sealed as an immutable raw fragment
// and the worker compresses it later, off the write path. Otherwise the
// compressed shard is built synchronously under the lock (the seed
// behavior). Callers hold s.mu.
func (s *Store) maybeRolloverLocked() error {
	if s.log.Size() < s.cfg.LogStoreThreshold {
		return nil
	}
	if s.bg != nil {
		s.sealLogLocked()
		s.bg.kick()
		return nil
	}
	tm := telemetry.StartTimer()
	nodes, edges := s.log.Contents()
	sh, err := core.Build(nodes, edges, s.nodeSchema, s.edgeSchema,
		core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
	if err != nil {
		return fmt.Errorf("store: rollover: %w", err)
	}
	frozen := make([]fragment, len(s.frozen), len(s.frozen)+1)
	copy(frozen, s.frozen)
	s.frozen = append(frozen, fragment{shard: sh})
	s.log = logstore.New(s.nodeSchema, s.edgeSchema, s.cfg.Medium, len(s.frozen))
	s.rollovers++
	s.rolloversSinceCompact++
	mRollovers.Inc()
	tm.ObserveInto(mRolloverNs)
	return nil
}

// sealLogLocked freezes the live LogStore into an immutable raw frozen
// generation and starts a fresh live log. The sealed generation keeps
// its generation number (update pointers stay valid: the slot it lands
// in is exactly the gen the live log had). Callers hold s.mu.
func (s *Store) sealLogLocked() {
	frozen := make([]fragment, len(s.frozen), len(s.frozen)+1)
	copy(frozen, s.frozen)
	s.frozen = append(frozen, fragment{raw: s.log})
	s.log = logstore.New(s.nodeSchema, s.edgeSchema, s.cfg.Medium, len(s.frozen))
	s.rollovers++
	s.rolloversSinceCompact++
	mRollovers.Inc()
}

// Rollovers returns how many LogStore freezes have happened.
func (s *Store) Rollovers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rollovers
}

// NumFragments returns the total number of fragments (primary shards +
// frozen generations + the live LogStore).
func (s *Store) NumFragments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.primaries) + len(s.frozen) + 1
}

// FragmentsOf returns how many fragments hold data for node id (1 for
// the primary + one per update-pointer generation). This is the quantity
// Figures 10 and 11 plot.
func (s *Store) FragmentsOf(id layout.NodeID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return 1 + len(s.ptrs[id])
}

// UpdatePointerStats returns the per-node fragment counts for every node
// that has at least one update pointer.
func (s *Store) UpdatePointerStats() map[layout.NodeID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[layout.NodeID]int, len(s.ptrs))
	for id, gens := range s.ptrs {
		out[id] = 1 + len(gens)
	}
	return out
}

// CompressedFootprint returns the total compressed bytes across all
// shards plus the live LogStore's accounted size.
func (s *Store) CompressedFootprint() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, sh := range s.primaries {
		total += int64(sh.CompressedSize())
	}
	for _, f := range s.frozen {
		if f.raw != nil {
			total += f.raw.Size()
			continue
		}
		total += int64(f.shard.CompressedSize())
	}
	return total + s.log.Size()
}

// RawSize returns the uncompressed flat-file bytes of the initial shards
// (the denominator of Figure 5's footprint ratio).
func (s *Store) RawSize() int64 {
	var total int64
	for _, sh := range s.primaries {
		total += int64(sh.RawSize())
	}
	return total
}

// nodeGensLocked returns the fragments to consult for node id's property
// record, newest first: LogStore (if pointed at), frozen generations
// descending, then the primary (nil sentinel). Callers hold s.mu.
func (s *Store) nodeGensLocked(id layout.NodeID) []int {
	if s.cfg.DisableFannedUpdates {
		gens := make([]int, len(s.frozen)+1)
		for i := range gens {
			gens[i] = len(s.frozen) - i // current LogStore first, then frozen
		}
		return gens
	}
	gens := append([]int(nil), s.ptrs[id]...)
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	return gens
}

// GetNodeProps returns the values of the given properties for node id
// (nil propertyIDs = wildcard: every schema property). The lookup
// consults only the fragments the node's update pointers name — the
// fanned-updates read path.
func (s *Store) GetNodeProps(id layout.NodeID, propertyIDs []string) ([]string, bool) {
	return s.GetNodePropsCtx(context.Background(), id, propertyIDs)
}

// GetNodePropsCtx is GetNodeProps under a trace context: when ctx
// carries an active span (a cluster serve span, say), the read becomes
// a child span in that trace with its time attributed to the logstore
// and succinct_walk phases; otherwise it behaves exactly like
// GetNodeProps (local sampling decision).
func (s *Store) GetNodePropsCtx(ctx context.Context, id layout.NodeID, propertyIDs []string) ([]string, bool) {
	// The disabled path stays free of timers, spans and counter loads —
	// one atomic flag read is the whole overhead.
	if !telemetry.Enabled() {
		return s.getNodeProps(id, propertyIDs, nil)
	}
	// Latency is timed only on span-sampled queries: two time.Now calls
	// per op would dominate the instrumentation budget on a ~µs read,
	// and sampled observations give the same p50/p95/p99. Counters and
	// the fragments histogram still see every operation.
	sp, _ := telemetry.StartSpanCtx(ctx, "store.get_node_props")
	var tm telemetry.Timer
	if sp != nil {
		tm = telemetry.StartTimer()
	}
	vals, ok := s.getNodeProps(id, propertyIDs, sp)
	mOpGetNodeProps.Inc()
	if sp != nil {
		tm.ObserveInto(mLatGetNodeProps)
		sp.End()
	}
	return vals, ok
}

func (s *Store) getNodeProps(id layout.NodeID, propertyIDs []string, sp *telemetry.Span) ([]string, bool) {
	s.mu.RLock()
	if s.deletedNodes[id] {
		s.mu.RUnlock()
		return nil, false
	}
	gens := s.nodeGensLocked(id)
	log := s.log
	frozen := s.frozen
	primaries := s.primaries
	s.mu.RUnlock()

	consulted := 0
	for _, g := range gens {
		if g == len(frozen) {
			consulted++
			endLog := sp.Phase("logstore")
			props, ok := log.NodeProps(id)
			endLog()
			if ok {
				sp.MarkLogStore()
				observeFragments(sp, consulted)
				return propsToValues(props, propertyIDs, s.nodeSchema), true
			}
			continue
		}
		if g > len(frozen) {
			continue
		}
		consulted++
		if raw := frozen[g].raw; raw != nil {
			endLog := sp.Phase("logstore")
			props, ok := raw.NodeProps(id)
			endLog()
			if ok {
				sp.MarkLogStore()
				observeFragments(sp, consulted)
				return propsToValues(props, propertyIDs, s.nodeSchema), true
			}
			continue
		}
		endWalk := sp.Phase("succinct_walk")
		vals, ok := frozen[g].shard.Nodes().GetProperties(id, propertyIDs)
		endWalk()
		if ok {
			sp.MarkNodeFile()
			sp.AddShard(g)
			recordSuccinctRead(sp, vals)
			observeFragments(sp, consulted)
			return vals, true
		}
	}
	p := s.partitionOf(id)
	endWalk := sp.Phase("succinct_walk")
	vals, ok := primaries[p].Nodes().GetProperties(id, propertyIDs)
	endWalk()
	if ok {
		sp.MarkNodeFile()
		sp.AddShard(p)
		recordSuccinctRead(sp, vals)
	}
	observeFragments(sp, consulted+1)
	return vals, ok
}

// observeFragments records the fragments-per-read distribution on
// span-sampled queries only (the same sampling as latency — see
// GetNodeProps); the distribution's shape and mean are what matters,
// and sampling keeps the per-read cost to one nil check.
func observeFragments(sp *telemetry.Span, consulted int) {
	if sp != nil {
		mFragmentsPerRead.Observe(int64(consulted))
	}
}

// recordSuccinctRead accounts bytes materialized out of a compressed
// shard, on both the global counter and the query's span.
func recordSuccinctRead(sp *telemetry.Span, vals []string) {
	if !telemetry.Enabled() {
		return
	}
	var n int64
	for _, v := range vals {
		n += int64(len(v))
	}
	mSuccinctBytes.Add(n)
	sp.AddBytes(n)
}

// GetAllNodeProps returns the node's full property map.
func (s *Store) GetAllNodeProps(id layout.NodeID) (map[string]string, bool) {
	vals, ok := s.GetNodeProps(id, nil)
	if !ok {
		return nil, false
	}
	props := make(map[string]string)
	for i, pid := range s.nodeSchema.IDs() {
		if vals[i] != "" {
			props[pid] = vals[i]
		}
	}
	return props, true
}

// propsToValues projects a property map onto the requested IDs (nil =
// all schema IDs in order).
func propsToValues(props map[string]string, propertyIDs []string, schema *layout.PropertySchema) []string {
	if len(propertyIDs) == 0 {
		propertyIDs = schema.IDs()
	}
	out := make([]string, len(propertyIDs))
	for i, pid := range propertyIDs {
		out[i] = props[pid]
	}
	return out
}

// pidScratch pools the property-ID slices NodeMatches builds; the
// FindNodes verification step and neighbor property filters call it once
// per candidate node, so the slice churn is worth recycling.
var pidScratch = sync.Pool{New: func() any { return new([]string) }}

// NodeMatches reports whether node id currently has every given
// property value (resolving the newest version of the node).
func (s *Store) NodeMatches(id layout.NodeID, props map[string]string) bool {
	return s.NodeMatchesCtx(context.Background(), id, props)
}

// NodeMatchesCtx is NodeMatches under a trace context (see
// GetNodePropsCtx).
func (s *Store) NodeMatchesCtx(ctx context.Context, id layout.NodeID, props map[string]string) bool {
	if len(props) == 0 {
		return true
	}
	sp := pidScratch.Get().(*[]string)
	pids := (*sp)[:0]
	for pid := range props {
		pids = append(pids, pid)
	}
	*sp = pids
	defer pidScratch.Put(sp)
	vals, ok := s.GetNodePropsCtx(ctx, id, pids)
	if !ok {
		return false
	}
	for i, pid := range pids {
		if vals[i] != props[pid] {
			return false
		}
	}
	return true
}

// FindNodes returns the IDs of all live nodes whose current properties
// match every pair (Table 1's get_node_ids). Per §4.1, this is the one
// query that must touch all fragments — so the per-fragment compressed
// searches fan out over the shared worker pool, as does the stale-match
// re-verification, with nothing but the fragment-set snapshot and the
// final merge running under the store lock. Results are deterministic
// across pool sizes: per-fragment hit lists come back in fragment order
// and the output is sorted by ID.
func (s *Store) FindNodes(props map[string]string) []layout.NodeID {
	if len(props) == 0 {
		return nil
	}
	mOpFindNodes.Inc()
	tm := telemetry.StartTimer()
	defer tm.ObserveInto(mLatFindNodes)
	s.mu.RLock()
	primaries := s.primaries
	frozen := s.frozen
	log := s.log
	s.mu.RUnlock()

	// One task per fragment; each collects hits into its own local
	// slice so the dedup below is a single merge pass.
	nFrags := len(primaries) + len(frozen) + 1
	perFrag := parallel.Map("store.find_nodes", nFrags, func(i int) []layout.NodeID {
		switch {
		case i < len(primaries):
			return primaries[i].Nodes().FindNodes(props)
		case i < len(primaries)+len(frozen):
			f := frozen[i-len(primaries)]
			if f.raw != nil {
				return f.raw.FindNodes(props)
			}
			return f.shard.Nodes().FindNodes(props)
		default:
			return log.FindNodes(props)
		}
	})
	seen := make(map[layout.NodeID]bool)
	var cands []layout.NodeID
	for _, ids := range perFrag {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				cands = append(cands, id)
			}
		}
	}
	// Verify each candidate against the node's current version outside
	// any lock: a match in an old fragment may be stale. Each check is
	// an independent fanned-updates read, so it fans out too.
	matched := parallel.Map("store.verify_nodes", len(cands), func(i int) bool {
		id := cands[i]
		s.mu.RLock()
		deleted := s.deletedNodes[id]
		s.mu.RUnlock()
		return !deleted && s.NodeMatches(id, props)
	})
	var out []layout.NodeID
	for i, ok := range matched {
		if ok {
			out = append(out, cands[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasNode reports whether a live property record exists for id.
func (s *Store) HasNode(id layout.NodeID) bool {
	_, ok := s.GetNodeProps(id, []string{})
	return ok
}

// HasNodeCtx is HasNode under a trace context (see GetNodePropsCtx).
func (s *Store) HasNodeCtx(ctx context.Context, id layout.NodeID) bool {
	_, ok := s.GetNodePropsCtx(ctx, id, []string{})
	return ok
}

// edgeHit is one fragment-local edge-search match: the decoded edge
// plus the coordinates needed to check its lazy-deletion mark (shard
// hits) or raw-generation tombstone (sealed-log hits).
type edgeHit struct {
	sh        *core.Shard        // non-nil for a compressed-shard hit
	raw       *logstore.LogStore // non-nil for a sealed raw-generation hit
	timeOrder int
	e         layout.Edge
}

// FindEdges returns every live edge whose property list matches all
// pairs exactly — the edge-property search §3.3 sketches as a NodeFile-
// style extension. Like FindNodes it touches every fragment, so the
// per-fragment compressed scans and edge-data decodes fan out over the
// shared pool against a snapshot of the fragment set; the store lock is
// held only for that snapshot and for one short deletion-filter pass at
// the end. (It used to be held across the entire multi-fragment scan,
// blocking every writer for the duration of a long search.)
func (s *Store) FindEdges(props map[string]string) []layout.Edge {
	if len(props) == 0 {
		return nil
	}
	mOpFindEdges.Inc()
	tm := telemetry.StartTimer()
	defer tm.ObserveInto(mLatFindEdges)
	s.mu.RLock()
	frags := make([]fragment, 0, len(s.primaries)+len(s.frozen))
	for _, sh := range s.primaries {
		frags = append(frags, fragment{shard: sh})
	}
	frags = append(frags, s.frozen...)
	log := s.log
	s.mu.RUnlock()

	perFrag := parallel.Map("store.find_edges", len(frags)+1, func(i int) []edgeHit {
		if i == len(frags) {
			es := log.FindEdges(props)
			hits := make([]edgeHit, 0, len(es))
			for _, e := range es {
				hits = append(hits, edgeHit{e: e})
			}
			return hits
		}
		if raw := frags[i].raw; raw != nil {
			es := raw.FindEdges(props)
			hits := make([]edgeHit, 0, len(es))
			for _, e := range es {
				hits = append(hits, edgeHit{raw: raw, e: e})
			}
			return hits
		}
		sh := frags[i].shard
		var hits []edgeHit
		// Matches cluster by (src, type); locating a record is itself a
		// compressed search, so resolve each record once and share the
		// ref (and its cached field windows) across its matches.
		type srcType struct {
			src layout.NodeID
			t   layout.EdgeType
		}
		refs := make(map[srcType]*layout.EdgeRecordRef)
		for _, m := range sh.FindEdges(props) {
			k := srcType{m.Src, m.Type}
			ref, seen := refs[k]
			if !seen {
				if r, ok := sh.Edges().GetEdgeRecord(m.Src, m.Type); ok {
					ref = &r
				}
				refs[k] = ref
			}
			if ref == nil {
				continue
			}
			d, err := sh.Edges().GetEdgeData(ref, m.TimeOrder)
			if err != nil {
				continue
			}
			hits = append(hits, edgeHit{sh: sh, timeOrder: m.TimeOrder, e: layout.Edge{
				Src: m.Src, Dst: d.Dst, Type: m.Type,
				Timestamp: d.Timestamp, Props: d.Props,
			}})
		}
		return hits
	})

	s.mu.RLock()
	var out []layout.Edge
	for _, hits := range perFrag {
		for _, h := range hits {
			if s.deletedNodes[h.e.Src] {
				continue
			}
			if h.sh != nil && s.deletedPhys[shardEdgeRef{h.sh, h.e.Src, h.e.Type}][h.timeOrder] {
				continue
			}
			if h.raw != nil && s.rawDels[h.raw][edgeTriple{h.e.Src, h.e.Type, h.e.Dst}] {
				continue
			}
			out = append(out, h.e)
		}
	}
	s.mu.RUnlock()
	// Stable sort on a (src, type, ts, dst) key over the fragment-ordered
	// hit lists: identical output at every pool size.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		if out[i].Timestamp != out[j].Timestamp {
			return out[i].Timestamp < out[j].Timestamp
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
