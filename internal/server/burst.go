package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"viewmap/internal/obs"
	"viewmap/internal/vp"
)

// Ingest burst pipeline. The sequential ingest path took each minute
// shard's lock per profile and ran the whole of IncrementalBuilder.Add
// — candidate enumeration, Bloom probing, graph splice — under it, so
// ingest concurrency was bounded by lock hold time and investigations
// stalled behind uploads. The burst pipeline moves the expensive half
// out of the critical section: producers (Store.commit, the one ingest
// call behind Put, PutBatch, every upload path, WAL replay and snapshot
// load) group validated, identifier-claimed profiles into per-minute
// bursts and hand them to the minute's dedicated link worker over a
// bounded SPSC ring; the worker runs builder.Stage for every profile
// of every queued burst outside the shard lock, then takes the lock
// once per drain to CommitStaged and append the slab.
// Distinct minutes link fully in parallel (one worker each), and
// within a minute the lock shrinks from "the whole linkage" to "the
// graph splice".
//
// Invariants (each pinned by a test in burst_test.go):
//   - Equivalence: a burst commits Stage results in submission order,
//     so the shard's graph, slab order, and epoch sequence are
//     bit-identical to sequential Puts of the same profiles.
//   - No lost bursts: a worker drains its ring before exiting; bursts
//     caught by an eviction or shutdown fail with retry, and the
//     submitter re-resolves the shard (eviction) or errors (closed).
//   - Counter parity: a linker rejection releases the identifier claim
//     and advances rejectedCount exactly as often as it advances
//     BatchResult.Rejected (replay bursts advance neither).

// ringSlots bounds queued bursts per shard; power of two.
const ringSlots = 256

// errStoreClosed is returned for ingest against a closed store.
var errStoreClosed = errors.New("server: store closed")

// burst is one minute-group of claimed, validated profiles in flight
// to a link worker. The worker owns the result fields until it closes
// done; afterwards they are the submitter's.
type burst struct {
	profiles []*vp.Profile
	// countRejects selects the live-path counter behavior: linker
	// rejections advance store.rejectedCount. WAL replay bursts leave
	// the attack-facing counters alone (see Store.commit).
	countRejects bool
	done         chan struct{}

	// tr, when non-nil, is the originating request's trace; the worker
	// charges the burst's ring-wait, Stage, and commit spans to it.
	// enqueued stamps the ring push for the ring-wait span; zero when
	// observability is off (the worker then skips all timing).
	tr       *obs.Trace
	enqueued time.Time

	// Results, written by the worker before close(done).
	stored      int
	quarantined int
	rejected    int
	// errs holds the per-profile ingest error (nil for accepted
	// profiles); allocated only when some profile fails.
	errs []error
	// retry marks a burst the worker could not process (shard evicted
	// or store closing); the submitter re-resolves and resubmits.
	retry bool
}

// setErr records a per-profile failure.
func (b *burst) setErr(i int, err error) {
	if b.errs == nil {
		b.errs = make([]error, len(b.profiles))
	}
	b.errs[i] = err
}

// ingestRing is the bounded queue between submitters and one shard's
// link worker: fixed power-of-two slot array, atomic head (consumer)
// and tail (producer) cursors. Multiple producers serialize on prodMu
// (the consumer side stays single and lock-free, the ndn-dpdk rxloop
// shape); wake and space are 1-token doorbells, so a drain absorbs
// every queued burst on one wakeup.
type ingestRing struct {
	slots [ringSlots]atomic.Pointer[burst]
	head  atomic.Uint64
	tail  atomic.Uint64

	prodMu sync.Mutex
	closed bool

	wake     chan struct{}
	space    chan struct{}
	closedCh chan struct{}
}

func newIngestRing() *ingestRing {
	return &ingestRing{
		wake:     make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

// push enqueues a burst, blocking while the ring is full. It returns
// false when the ring is closed — the worker is gone (shard evicted or
// store closing) and the submitter must re-resolve.
func (r *ingestRing) push(b *burst) bool {
	r.prodMu.Lock()
	for {
		if r.closed {
			r.prodMu.Unlock()
			return false
		}
		t := r.tail.Load()
		if t-r.head.Load() < ringSlots {
			r.slots[t&(ringSlots-1)].Store(b)
			r.tail.Store(t + 1)
			r.prodMu.Unlock()
			select {
			case r.wake <- struct{}{}:
			default:
			}
			return true
		}
		r.prodMu.Unlock()
		select {
		case <-r.space:
		case <-r.closedCh:
		}
		r.prodMu.Lock()
	}
}

// popAll drains every queued burst into buf (consumer side only).
func (r *ingestRing) popAll(buf []*burst) []*burst {
	h := r.head.Load()
	t := r.tail.Load()
	for ; h != t; h++ {
		slot := &r.slots[h&(ringSlots-1)]
		buf = append(buf, slot.Load())
		slot.Store(nil)
	}
	r.head.Store(h)
	select {
	case r.space <- struct{}{}:
	default:
	}
	return buf
}

// closeRing rejects future pushes and returns the leftover bursts.
// Called exactly once, by the worker on its way out.
func (r *ingestRing) closeRing() []*burst {
	r.prodMu.Lock()
	r.closed = true
	close(r.closedCh)
	r.prodMu.Unlock()
	return r.popAll(nil)
}

// startLinkWorker launches sh's link worker. Called once per shard,
// before the shard is installed in the shard map (so the ring cannot
// receive bursts earlier).
func (s *Store) startLinkWorker(sh *minuteShard) {
	go s.linkWorker(sh)
}

// stopLinkWorker signals sh's worker and waits for it to drain and
// exit. Idempotent.
func (sh *minuteShard) stopLinkWorker() {
	sh.stopOnce.Do(func() { close(sh.stopWorker) })
	<-sh.workerDone
}

// linkWorker is one shard's ingest loop: drain the ring, stage and
// commit the drained bursts, park on the doorbell when idle. It exits
// when stopped (store shutdown, shard eviction) or when it observes
// the shard evicted mid-commit; either way it closes the ring and
// fails the leftovers with retry, so no burst is ever lost.
func (s *Store) linkWorker(sh *minuteShard) {
	defer close(sh.workerDone)
	var buf []*burst
	for {
		buf = sh.ring.popAll(buf[:0])
		if len(buf) == 0 {
			select {
			case <-sh.stopWorker:
				failBursts(sh.ring.closeRing())
				return
			case <-sh.ring.wake:
			}
			continue
		}
		if !s.processBursts(sh, buf) {
			failBursts(buf)
			failBursts(sh.ring.closeRing())
			return
		}
	}
}

// failBursts fails bursts back to their submitters for resubmission.
func failBursts(bs []*burst) {
	for _, b := range bs {
		b.retry = true
		close(b.done)
	}
}

// processBursts runs one drain: stage every profile of every burst
// outside the shard lock, then commit them all under one lock
// acquisition. Returns false — with nothing committed and the staging
// state abandoned — when the shard was evicted underneath.
func (s *Store) processBursts(sh *minuteShard, bursts []*burst) bool {
	// All stage timing keys off the push timestamp: submitBurst stamps
	// it only when observability is on, so the disabled path pays an
	// IsZero check per burst and no clock reads.
	timed := false
	for _, b := range bursts {
		if !b.enqueued.IsZero() {
			timed = true
			break
		}
	}
	if timed {
		pickup := time.Now()
		for _, b := range bursts {
			if b.enqueued.IsZero() {
				continue
			}
			wait := pickup.Sub(b.enqueued)
			s.metrics.Stage(obs.StageRingWait).Record(int64(wait))
			b.tr.Observe(obs.StageRingWait, wait)
		}
	}

	// Stage phase: admission, candidate enumeration, Bloom probing.
	// Builder staging state is worker-private, so no lock is held.
	for _, b := range bursts {
		var stageStart time.Time
		if timed {
			stageStart = time.Now()
		}
		for i, p := range b.profiles {
			ok, err := sh.builder.Stage(p)
			switch {
			case err != nil:
				b.setErr(i, err)
			case !ok:
				b.quarantined++
			}
		}
		if timed {
			d := time.Since(stageStart)
			s.metrics.Stage(obs.StageLink).Record(int64(d))
			b.tr.Observe(obs.StageLink, d)
		}
	}

	// Commit phase: splice the staged graph and append the slab under
	// one lock hold.
	var commitStart time.Time
	if timed {
		commitStart = time.Now()
	}
	sh.mu.Lock()
	if sh.evicted {
		sh.mu.Unlock()
		sh.builder.AbandonStaged()
		// Reset result fields the stage phase may have touched; the
		// retried burst starts clean against the successor shard.
		for _, b := range bursts {
			b.quarantined = 0
			b.errs = nil
		}
		return false
	}
	sh.builder.CommitStaged()
	for _, b := range bursts {
		for i, p := range b.profiles {
			if b.errs != nil && b.errs[i] != nil {
				continue
			}
			sh.profiles = append(sh.profiles, p)
		}
		sh.quarantined += b.quarantined
	}
	sh.dirty = true
	close(sh.changed)
	sh.changed = make(chan struct{})
	minute := sh.builder.Minute()
	sh.mu.Unlock()

	if timed {
		// One CommitStaged covered the whole drain: the histogram gets
		// one sample, and every covered request is charged the full
		// span (spans may therefore overlap across requests).
		d := time.Since(commitStart)
		s.metrics.Stage(obs.StageCommit).Record(int64(d))
		for _, b := range bursts {
			b.tr.Observe(obs.StageCommit, d)
		}
	}

	// Accounting and acknowledgement, off the shard lock.
	for _, b := range bursts {
		for i, p := range b.profiles {
			if b.errs != nil && b.errs[i] != nil {
				// Linker rejection: nothing half-ingested. Release the
				// identifier claim and keep the gate counter aligned
				// with the per-batch result.
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
		close(b.done)
	}
	s.noteMinute(minute)
	return true
}

// submitBurst hands one minute-group of claimed, validated profiles to
// the minute's link worker and waits for the commit (ack-after-link).
// It re-resolves the shard when an eviction races the submission, and
// fails with errStoreClosed once the store is shut down.
func (s *Store) submitBurst(m int64, profiles []*vp.Profile, countRejects bool, tr *obs.Trace) (*burst, error) {
	for {
		if s.closed.Load() {
			return nil, errStoreClosed
		}
		sh, err := s.ensureShard(m)
		if err != nil {
			return nil, err
		}
		b := &burst{profiles: profiles, countRejects: countRejects, done: make(chan struct{}), tr: tr}
		if s.metrics.Enabled() || tr != nil {
			b.enqueued = time.Now()
		}
		if !sh.ring.push(b) {
			continue
		}
		<-b.done
		if b.retry {
			continue
		}
		return b, nil
	}
}

// Close shuts the store's ingest side down: every shard's link worker
// drains and exits, and subsequent ingest fails with an error. Reads
// against resident shards keep working; the System calls this on
// shutdown, after its final snapshot.
func (s *Store) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.RLock()
	shards := make([]*minuteShard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	for _, sh := range shards {
		sh.stopLinkWorker()
	}
}
