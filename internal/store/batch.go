package store

import (
	"sort"

	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// Vectorized store reads. Each batch entry point takes one snapshot of
// the mutable overlay (update pointers, deletion marks) under the store
// lock, splits the requests into a fast set — IDs whose data provably
// lives only in their immutable primary shard — and a slow set
// (fragmented, deleted-edge or log-resident IDs). Fast requests are
// grouped per shard, deduplicated, and handed to the layout batch
// readers (which ride the succinct locality-sorted kernels) with the
// per-shard groups fanned out on the shared parallel pool; slow requests
// fall back to the scalar path, whose overlay merge is authoritative.
// Results are positional and byte-identical to a scalar loop.

var (
	mBatchRequests = telemetry.NewCounterL("zipg_batch_requests_total", `layer="store"`,
		"Items requested through batch kernels, by layer.")
	mBatchRecords = telemetry.NewCounter("zipg_batch_records_total",
		"Records resolved (found) by store-level batch reads.")
)

// getNodePropsBatch answers GetNodeProps(id, propertyIDs) for every id.
// Shared by ObjGetBatch and NodeMatchesBatch.
func (s *Store) getNodePropsBatch(ids []layout.NodeID, propertyIDs []string) ([][]string, []bool) {
	vals := make([][]string, len(ids))
	oks := make([]bool, len(ids))
	if len(ids) == 0 {
		return vals, oks
	}
	if telemetry.Enabled() {
		mBatchRequests.Add(int64(len(ids)))
	}
	dupOf := make([]int, len(ids))
	slow := make([]int, 0)
	firstIdx := make(map[layout.NodeID]int, len(ids))

	// Snapshot the primaries with the overlay: an online compaction may
	// swap s.primaries while the batch decodes, and the fast-path split
	// below is only valid against the shard set it was computed from.
	s.mu.RLock()
	primaries := s.primaries
	groups := make([][]int, len(primaries)) // request indices per shard
	for i, id := range ids {
		dupOf[i] = -1
		if j, dup := firstIdx[id]; dup {
			dupOf[i] = j
			continue
		}
		firstIdx[id] = i
		if s.deletedNodes[id] {
			continue // (nil, false), like the scalar path
		}
		if s.cfg.DisableFannedUpdates || len(s.ptrs[id]) > 0 {
			slow = append(slow, i)
			continue
		}
		p := s.partitionOf(id)
		groups[p] = append(groups[p], i)
	}
	s.mu.RUnlock()

	// Per-shard batches fan out on the shared pool; each group writes
	// only its own request slots.
	parallel.Map("store.batch_node_props", len(groups), func(p int) struct{} {
		g := groups[p]
		if len(g) == 0 {
			return struct{}{}
		}
		gids := make([]layout.NodeID, len(g))
		for k, i := range g {
			gids[k] = ids[i]
		}
		vs, os := primaries[p].Nodes().GetPropertiesBatch(gids, propertyIDs)
		for k, i := range g {
			vals[i], oks[i] = vs[k], os[k]
		}
		return struct{}{}
	})
	for _, i := range slow {
		vals[i], oks[i] = s.GetNodeProps(ids[i], propertyIDs)
	}
	var found int64
	for i := range ids {
		if j := dupOf[i]; j >= 0 {
			vals[i], oks[i] = vals[j], oks[j]
		}
		if oks[i] {
			found++
		}
	}
	if telemetry.Enabled() {
		mBatchRecords.Add(found)
	}
	return vals, oks
}

// ObjGetBatch answers GetNodeProps(id, nil) — TAO's obj_get, all
// properties in schema order — for every id in one vectorized pass.
// Results are positional; duplicate IDs share one resolution and absent
// or deleted IDs yield (nil, false), exactly like a scalar loop.
func (s *Store) ObjGetBatch(ids []layout.NodeID) ([][]string, []bool) {
	return s.getNodePropsBatch(ids, nil)
}

// NodeMatchesBatch reports, for every id, whether the node exists and
// currently has every given property value — the batched form of
// HasNode(id) && NodeMatches(id, props), which is the per-candidate
// check the cluster MatchBatch handler and the aggregator's local
// subquery run. Empty props reduces to a liveness check.
func (s *Store) NodeMatchesBatch(ids []layout.NodeID, props map[string]string) []bool {
	pids := make([]string, 0, len(props))
	for pid := range props {
		pids = append(pids, pid)
	}
	sort.Strings(pids)
	vals, oks := s.getNodePropsBatch(ids, pids)
	out := make([]bool, len(ids))
	for i := range ids {
		if !oks[i] {
			continue
		}
		match := true
		for k, pid := range pids {
			if vals[i][k] != props[pid] {
				match = false
				break
			}
		}
		out[i] = match
	}
	return out
}

// AssocRangeReq names one assoc_range read: up to Limit edges of
// (ID, Type) in time order starting at TimeOrder Idx.
type AssocRangeReq struct {
	ID    layout.NodeID
	Type  layout.EdgeType
	Idx   int
	Limit int
}

// AssocRangeBatch answers TAO assoc_range for every request in one
// vectorized pass. Results are positional and identical to the scalar
// loop (GetEdgeRecord + GetEdgeData over [Idx, min(Idx+Limit, Count)),
// negative indices skipped): missing records yield nil, duplicates share
// one resolution. Requests whose record provably lives only in the
// primary shard with no deletion marks are located by the in-memory
// build index and decoded by the layout batch reader; everything else
// takes the scalar overlay merge.
func (s *Store) AssocRangeBatch(reqs []AssocRangeReq) ([][]layout.EdgeData, error) {
	out := make([][]layout.EdgeData, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	if telemetry.Enabled() {
		mBatchRequests.Add(int64(len(reqs)))
	}
	dupOf := make([]int, len(reqs))
	slow := make([]int, 0)
	type shardGroup struct {
		lreqs []layout.EdgeRangeReq
		back  []int
	}
	firstIdx := make(map[AssocRangeReq]int, len(reqs))

	// Snapshot the primaries with the overlay (see getNodePropsBatch).
	s.mu.RLock()
	primaries := s.primaries
	groups := make([]shardGroup, len(primaries))
	for i, req := range reqs {
		dupOf[i] = -1
		if j, dup := firstIdx[req]; dup {
			dupOf[i] = j
			continue
		}
		firstIdx[req] = i
		if s.deletedNodes[req.ID] {
			continue // nil, like the scalar path
		}
		if s.cfg.DisableFannedUpdates || len(s.ptrs[req.ID]) > 0 {
			slow = append(slow, i)
			continue
		}
		p := s.partitionOf(req.ID)
		sh := primaries[p]
		if len(s.deletedPhys[shardEdgeRef{sh, req.ID, req.Type}]) > 0 {
			slow = append(slow, i)
			continue
		}
		off, ok := sh.EdgeRecordOffset(req.ID, req.Type)
		if !ok {
			continue // no record anywhere: nil result
		}
		groups[p].lreqs = append(groups[p].lreqs, layout.EdgeRangeReq{
			Src: req.ID, Type: req.Type, Offset: off, Idx: req.Idx, Limit: req.Limit,
		})
		groups[p].back = append(groups[p].back, i)
	}
	s.mu.RUnlock()

	errs := parallel.Map("store.assoc_range_batch", len(groups), func(p int) error {
		g := groups[p]
		if len(g.lreqs) == 0 {
			return nil
		}
		data, err := primaries[p].Edges().GetEdgeRangeBatch(g.lreqs)
		if err != nil {
			return err
		}
		for k, i := range g.back {
			out[i] = data[k]
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, i := range slow {
		data, err := s.assocRangeScalar(reqs[i])
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	var found int64
	for i := range reqs {
		if j := dupOf[i]; j >= 0 {
			out[i] = out[j]
		}
		if out[i] != nil {
			found++
		}
	}
	if telemetry.Enabled() {
		mBatchRecords.Add(found)
	}
	return out, nil
}

// assocRangeScalar is the overlay-merging fallback: the exact scalar
// loop the batch path must agree with.
func (s *Store) assocRangeScalar(req AssocRangeReq) ([]layout.EdgeData, error) {
	rec, ok := s.GetEdgeRecord(req.ID, req.Type)
	if !ok {
		return nil, nil
	}
	end := req.Idx + req.Limit
	if end > rec.Count() {
		end = rec.Count()
	}
	var out []layout.EdgeData
	for i := req.Idx; i < end; i++ {
		if i < 0 {
			continue
		}
		d, err := rec.GetEdgeData(i)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
