package store

import "zipg/internal/telemetry"

// Telemetry series for the single-machine store. Instances are resolved
// once at init so the hot path never does a registry lookup; every
// mutator is a no-op while telemetry is disabled (see package
// telemetry).
const (
	helpStoreOps     = "Store operations executed, by Table 1 op."
	helpStoreLatency = "Store operation latency in nanoseconds, by op."
)

var (
	mOpGetNodeProps  = telemetry.NewCounterL("zipg_store_ops_total", `op="get_node_props"`, helpStoreOps)
	mOpNeighborIDs   = telemetry.NewCounterL("zipg_store_ops_total", `op="get_neighbor_ids"`, helpStoreOps)
	mOpFindNodes     = telemetry.NewCounterL("zipg_store_ops_total", `op="get_node_ids"`, helpStoreOps)
	mOpFindEdges     = telemetry.NewCounterL("zipg_store_ops_total", `op="find_edges"`, helpStoreOps)
	mOpGetEdgeRecord = telemetry.NewCounterL("zipg_store_ops_total", `op="get_edge_record"`, helpStoreOps)
	mOpAppendNode    = telemetry.NewCounterL("zipg_store_ops_total", `op="append_node"`, helpStoreOps)
	mOpAppendEdge    = telemetry.NewCounterL("zipg_store_ops_total", `op="append_edge"`, helpStoreOps)
	mOpDeleteNode    = telemetry.NewCounterL("zipg_store_ops_total", `op="delete_node"`, helpStoreOps)
	mOpDeleteEdges   = telemetry.NewCounterL("zipg_store_ops_total", `op="delete_edges"`, helpStoreOps)

	mLatGetNodeProps = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_node_props"`, helpStoreLatency)
	mLatNeighborIDs  = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_neighbor_ids"`, helpStoreLatency)
	mLatFindNodes    = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_node_ids"`, helpStoreLatency)
	mLatFindEdges    = telemetry.NewHistogramL("zipg_store_latency_ns", `op="find_edges"`, helpStoreLatency)

	// mFragmentsPerRead is the paper's fanned-updates quantity: how many
	// fragments (primary + frozen generations + LogStore) one node-prop
	// read consulted (§3.5, Figures 10-11).
	mFragmentsPerRead = telemetry.NewHistogram("zipg_store_fragments_per_read",
		"Fragments consulted per node-property read (fanned updates).")

	// mSuccinctBytes counts property/edge bytes materialized out of
	// Succinct-compressed shards (not LogStore hits).
	mSuccinctBytes = telemetry.NewCounter("zipg_store_succinct_bytes_total",
		"Bytes extracted from Succinct-compressed shards.")

	// Group-commit write path (see groupcommit.go).
	mGroupBatches = telemetry.NewCounter("zipg_group_commit_batches_total",
		"Group-commit batches published (one store-lock acquisition each).")
	mGroupRecords = telemetry.NewCounter("zipg_group_commit_records_total",
		"Records published through group-commit batches.")
	// mWriteStallNs is the time one writer spent between enqueueing its
	// put and the put becoming visible — queueing plus the commit's
	// critical section. The writer-visible cost of the write path.
	mWriteStallNs = telemetry.NewHistogram("zipg_write_stall_ns",
		"Per-write stall from enqueue to visibility, in nanoseconds.")
	// mCompactionPauseNs is the time an online compaction held the store
	// write lock (the seal snapshot plus the swap) — the only windows
	// where queries and writes actually stall. The rebuild itself runs
	// outside the lock and does not count.
	mCompactionPauseNs = telemetry.NewHistogram("zipg_compaction_pause_ns",
		"Store-lock hold time of online compaction's seal and swap phases, in nanoseconds.")

	mRollovers = telemetry.NewCounter("zipg_store_rollovers_total",
		"LogStore freezes into compressed shards.")
	mRolloverNs = telemetry.NewHistogram("zipg_store_rollover_ns",
		"LogStore freeze (compress) duration in nanoseconds.")
	mCompactions = telemetry.NewCounter("zipg_store_compactions_total",
		"Full store compactions (garbage collections).")
	mCompactionNs = telemetry.NewHistogram("zipg_store_compaction_ns",
		"Full compaction duration in nanoseconds.")
)
