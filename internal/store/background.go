package store

import (
	"time"

	"zipg/internal/core"
	"zipg/internal/logstore"
	"zipg/internal/telemetry"
)

// backgroundCompactor is the store's maintenance goroutine. It owns
// two jobs, both serialized with Compact through buildMu:
//
//   - compressing sealed raw generations: a threshold rollover with
//     background compaction enabled is an O(1) seal under the lock;
//     the actual suffix-array build happens here, off the write path,
//     and the compressed shard is swapped in under a brief lock.
//   - triggering full online compactions, either every CompactInterval
//     or once CompactAfterRollovers rollovers have accumulated.
//
// kick() is called (non-blocking) by the write path whenever a seal
// happens; the interval ticker covers stores that go idle with work
// pending.
type backgroundCompactor struct {
	s        *Store
	interval time.Duration
	kickCh   chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}
}

func startBackground(s *Store, interval time.Duration) *backgroundCompactor {
	b := &backgroundCompactor{
		s:        s,
		interval: interval,
		kickCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	go b.run()
	return b
}

// kick wakes the worker without blocking; a kick while one is already
// pending is a no-op (the worker drains all pending work per pass).
func (b *backgroundCompactor) kick() {
	select {
	case b.kickCh <- struct{}{}:
	default:
	}
}

// stop shuts the worker down and waits for it to exit. Work already
// inside a buildMu critical section finishes; queued work is dropped
// (a later Compact, or Save, handles leftover raw generations).
func (b *backgroundCompactor) stop() {
	close(b.stopCh)
	<-b.doneCh
}

func (b *backgroundCompactor) run() {
	defer close(b.doneCh)
	var tick <-chan time.Time
	if b.interval > 0 {
		t := time.NewTicker(b.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-b.stopCh:
			return
		case <-b.kickCh:
			b.pass(false)
		case <-tick:
			b.pass(true)
		}
	}
}

// pass drains pending maintenance: compress every sealed raw
// generation, then run a full compaction if a trigger fires.
func (b *backgroundCompactor) pass(intervalFired bool) {
	for b.s.compressOnePending() {
		select {
		case <-b.stopCh:
			return
		default:
		}
	}
	after := b.s.cfg.CompactAfterRollovers
	if intervalFired || (after > 0 && b.s.rolloversPending() >= after) {
		// Compaction failure leaves the store fully serviceable (the
		// fragments it would have merged stay live); the next trigger
		// retries.
		_ = b.s.Compact()
	}
}

// rolloversPending returns rollovers since the last full compaction.
func (s *Store) rolloversPending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rolloversSinceCompact
}

// compressOnePending finds the oldest sealed raw generation, builds
// its compressed shard outside the store lock, and swaps it in,
// converting the generation's delete tombstones into lazy per-position
// marks on the new shard. Returns false when no raw generation
// remains (or the build failed — the raw generation stays live and
// readable either way).
func (s *Store) compressOnePending() bool {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()

	s.mu.RLock()
	g := -1
	var raw *logstore.LogStore
	for i, f := range s.frozen {
		if f.raw != nil {
			g, raw = i, f.raw
			break
		}
	}
	s.mu.RUnlock()
	if g < 0 {
		return false
	}

	// The sealed log is immutable (only its tombstones in s.rawDels
	// move, and those are re-read at swap), so no replay machinery is
	// needed: build from the full contents, then carry the current
	// tombstone set over as deletion marks.
	tm := telemetry.StartTimer()
	nodes, edges := raw.Contents()
	sh, err := core.Build(nodes, edges, s.nodeSchema, s.edgeSchema,
		core.Options{SamplingRate: s.cfg.SamplingRate, Medium: s.cfg.Medium})
	if err != nil {
		return false
	}
	tm.ObserveInto(mRolloverNs)

	pause := telemetry.StartTimer()
	s.mu.Lock()
	// Index g is still valid: rollovers only append to s.frozen, and
	// buildMu excludes the only operations that drop or reorder
	// generations (Compact).
	frozen := append([]fragment(nil), s.frozen...)
	frozen[g] = fragment{shard: sh}
	s.frozen = frozen
	for t := range s.rawDels[raw] {
		s.markShardEdgesLocked(sh, t)
	}
	delete(s.rawDels, raw)
	s.mu.Unlock()
	pause.ObserveInto(mCompactionPauseNs)
	return true
}
