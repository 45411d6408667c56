package server

import (
	"errors"
	"time"

	"viewmap/internal/obs"
	"viewmap/internal/vp"
)

// Ingest burst linking. Linking a profile — candidate enumeration and
// Bloom probing — costs far more than splicing it into the graph, and
// investigations must not wait for it. Producers (Store.commit, the one
// ingest call behind Put, PutBatch, every upload path, WAL replay and
// a legacy snapshot's load) group validated, identifier-claimed profiles into
// per-minute bursts, and each submitter links its own burst under the
// minute's link lock (minuteShard.linkMu): builder.Stage for every
// profile outside the shard lock, then one shard-lock hold to
// CommitStaged and append the slab. Distinct minutes link fully in
// parallel, and readers, which take only the shard lock, wait at most
// for a graph splice.
//
// Invariants (each pinned by a test in burst_test.go):
//   - Equivalence: a burst commits its Stage results in submission
//     order, so the shard's graph, slab order, and epoch sequence are
//     bit-identical to sequential Puts of the same profiles.
//   - No lost bursts: eviction holds the link lock from its segment cut
//     to the shard drop, so a burst either commits before the cut (and
//     is in the segment) or finds the shard evicted before staging
//     anything and re-resolves the successor.
//   - Counter parity: a linker rejection releases the identifier claim
//     and advances rejectedCount exactly as often as it advances
//     BatchResult.Rejected (replay bursts advance neither).

// errStoreClosed is returned for ingest against a closed store.
var errStoreClosed = errors.New("server: store closed")

// burst is one minute-group of claimed, validated profiles and the
// outcome of linking them.
type burst struct {
	profiles []*vp.Profile
	// countRejects selects the live-path counter behavior: linker
	// rejections advance store.rejectedCount. WAL replay bursts leave
	// the attack-facing counters alone (see Store.commit).
	countRejects bool
	// tr, when non-nil, is the originating request's trace; linkBurst
	// charges the burst's link-lock wait, Stage, and commit spans to it.
	tr *obs.Trace

	stored      int
	quarantined int
	rejected    int
	// errs holds the per-profile ingest error (nil for accepted
	// profiles); allocated only when some profile fails.
	errs []error
}

// setErr records a per-profile failure.
func (b *burst) setErr(i int, err error) {
	if b.errs == nil {
		b.errs = make([]error, len(b.profiles))
	}
	b.errs[i] = err
}

// submitBurst links one minute-group of claimed, validated profiles
// into the minute's shard and returns once the burst is committed
// (ack-after-link). It re-resolves the shard when an eviction wins the
// link lock first, and fails with errStoreClosed once the store is
// shut down.
func (s *Store) submitBurst(m int64, profiles []*vp.Profile, countRejects bool, tr *obs.Trace) (*burst, error) {
	b := &burst{profiles: profiles, countRejects: countRejects, tr: tr}
	for {
		if s.closed.Load() {
			return nil, errStoreClosed
		}
		sh, err := s.ensureShard(m)
		if err != nil {
			return nil, err
		}
		if s.linkBurst(sh, b) {
			return b, nil
		}
	}
}

// linkBurst stages every profile of b under sh's link lock but outside
// its shard lock, commits the staged graph and appends the slab under
// one shard-lock hold, then does the per-profile accounting off both
// locks. It returns false, with nothing staged, when sh was evicted
// before the link lock was won; the caller re-resolves the minute.
func (s *Store) linkBurst(sh *minuteShard, b *burst) bool {
	waitStart := time.Now()
	sh.linkMu.Lock()
	if sh.evicted {
		sh.linkMu.Unlock()
		return false
	}
	wait := time.Since(waitStart)
	s.metrics.Stage(obs.StageRingWait).Record(int64(wait))
	b.tr.Observe(obs.StageRingWait, wait)

	// Stage phase: admission, candidate enumeration, Bloom probing. The
	// link lock makes the builder's staging state ours; readers are not
	// held up.
	stageStart := time.Now()
	for i, p := range b.profiles {
		ok, err := sh.builder.Stage(p)
		switch {
		case err != nil:
			b.setErr(i, err)
		case !ok:
			b.quarantined++
		}
	}
	d := time.Since(stageStart)
	s.metrics.Stage(obs.StageLink).Record(int64(d))
	b.tr.Observe(obs.StageLink, d)

	// Commit phase: splice the staged graph and append the slab under
	// one shard-lock hold.
	commitStart := time.Now()
	sh.mu.Lock()
	sh.builder.CommitStaged()
	for i, p := range b.profiles {
		if b.errs == nil || b.errs[i] == nil {
			sh.profiles = append(sh.profiles, p)
		}
	}
	sh.quarantined += b.quarantined
	sh.dirty = true
	close(sh.changed)
	sh.changed = make(chan struct{})
	sh.mu.Unlock()
	sh.linkMu.Unlock()
	d = time.Since(commitStart)
	s.metrics.Stage(obs.StageCommit).Record(int64(d))
	b.tr.Observe(obs.StageCommit, d)

	for i, p := range b.profiles {
		if b.errs != nil && b.errs[i] != nil {
			// Linker rejection: nothing half-ingested. Release the
			// identifier claim and keep the gate counter aligned with the
			// per-batch result.
			s.ids.Delete(p.ID())
			b.rejected++
			if b.countRejects {
				s.rejectedCount.Add(1)
			}
			continue
		}
		b.stored++
		s.count.Add(1)
		if p.Trusted {
			s.trustedCount.Add(1)
		}
	}
	s.noteMinute(sh.builder.Minute())
	return true
}

// Close marks the store closed: later ingest and segment reloads fail
// with errStoreClosed. Reads against resident shards keep working; the
// System calls this on shutdown, after its final checkpoint.
func (s *Store) Close() { s.closed.Store(true) }
