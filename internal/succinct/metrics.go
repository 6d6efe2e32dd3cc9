package succinct

import "zipg/internal/telemetry"

// Kernel telemetry: the quantities the streaming kernels exist to
// shrink. Counters are batched — hot loops accumulate locally and add
// once per operation, and every mutator is a no-op while telemetry is
// disabled — so /metrics can show the Ψ walks a cursor or walker
// eliminates without taxing the walks themselves.
var (
	// mPsiSteps counts Ψ evaluations on decode paths (ISA anchor walks,
	// extract/walk byte steps, SA locates). One Extract of n bytes is
	// ~α/2 + n steps; a Walker re-uses its row so consecutive reads of
	// one record pay the anchor walk once.
	mPsiSteps = telemetry.NewCounter("zipg_succinct_psi_steps_total",
		"Psi (NPA) steps executed by extract/locate kernels.")

	// mISALookups counts ISA sample anchor lookups — one per Extract
	// before the walker, one per record read after.
	mISALookups = telemetry.NewCounter("zipg_succinct_isa_lookups_total",
		"ISA sample lookups anchoring suffix-array walks.")

	// mExtractBytes counts bytes materialized out of the compressed
	// representation by Extract/ExtractAppend/Walker reads.
	mExtractBytes = telemetry.NewCounter("zipg_succinct_extract_bytes_total",
		"Bytes decoded out of compressed stores by extract kernels.")

	// Batch kernels (ExtractBatch/WalkBatch). mBatchRequests counts items
	// that rode a batch; the cursor pair makes the sharing win observable:
	// reuse is Ψ evaluations served from an already-decoded block of a
	// shared per-bucket cursor, regions is the block decodes actually paid
	// — a scalar loop would pay one delta re-sum per evaluation instead.
	mBatchRequests = telemetry.NewCounterL("zipg_batch_requests_total", `layer="succinct"`,
		"Items requested through batch kernels, by layer.")
	mBatchCursorReuse = telemetry.NewCounter("zipg_batch_cursor_reuse_total",
		"Psi evaluations served from the per-batch decoded-block cache in batch kernels.")
	mBatchRegions = telemetry.NewCounter("zipg_batch_regions_touched_total",
		"Psi block decodes (distinct NPA regions touched) by batch kernels.")
)
