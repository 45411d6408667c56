// Package server implements the ViewMap system service: the VP
// database fed by anonymous uploads, viewmap construction and
// verification around incidents, and the evidence desk that solicits
// videos, validates them against their VPs and pays for them in
// untraceable cash (Sections 4-5).
package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/obs"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// Store is the VP database: anonymized, self-contained view profiles
// indexed by identifier and sharded by unit-time window. Each minute
// shard owns its locks, a dense slab of profiles in ingest order, and
// an incremental viewmap builder that links every accepted profile
// against the minute's existing members as it arrives — so the
// minute's visibility graph is always current and investigations
// never rebuild it from scratch. Extracted site viewmaps are cached
// per shard and invalidated by the builder's ingest epoch.
//
// Identifier lookups and duplicate rejection go through a single
// concurrent index; everything else is per-shard, so ingest into one
// minute never contends with ingest or investigation in another. The
// Store is safe for concurrent use.
type Store struct {
	cfg StoreConfig

	// mu guards the shard map. The lock order is reloadMu → spillMu →
	// minuteShard.linkMu → mu → minuteShard.mu. mu may be held while
	// acquiring shard mutexes (eviction does, to drop a shard), never
	// the reverse; ingest holds mu just long enough for a map
	// lookup/insert, so one minute's slow extraction never stalls
	// traffic to other minutes.
	mu     sync.RWMutex
	shards map[int64]*minuteShard
	// segments marks minutes with an on-disk segment file (see
	// retention.go); a minute in segments but not in shards is only on
	// disk. Each value is the builder epoch of the graph the segment
	// restores (its node count), recorded when the segment is spilled or
	// adopted, so such a minute's epoch is known without a reload.
	segments map[int64]uint64

	// reloadMu single-flights segment reloads: cold queries are rare
	// and a reload reads and restores a whole minute, so concurrent
	// reloads of any evicted minutes serialize rather than duplicating
	// that work.
	reloadMu sync.Mutex

	// spillMu serializes segment spills (eviction holds it through the
	// shard drop) and guards spill, the record writer every segment file
	// reuses. Taken before any link lock, mu and any shard mutex, never
	// while holding them.
	spillMu sync.Mutex
	spill   recordWriter

	// newestMinute tracks the most recent ingested minute — the
	// retention horizon's anchor. noMinute until the first ingest.
	newestMinute atomic.Int64
	// touchSeq stamps shard recency for the cold-set LRU.
	touchSeq atomic.Uint64

	// ids maps VPID -> *vp.Profile across all shards. An ingest claims
	// its identifier here first, with one atomic LoadOrStore: losers
	// drop out before any shard is created (a replayed identifier
	// carries an attacker-chosen minute and must not allocate
	// anything). The claim makes the profile Get-visible a moment
	// before its slab insertion completes; a segment spill in that
	// window omits the in-flight profile, whose WAL record is above the
	// checkpoint's barrier and replays after a crash.
	ids sync.Map

	// closed is set by Close; ingest and segment reloads observe it and
	// fail fast, so a closed store neither links new bursts nor installs
	// (and then spills) reloaded shards into a data directory that a
	// recovered successor may own.
	closed atomic.Bool

	count        atomic.Int64
	trustedCount atomic.Int64

	// Attack-facing ingest counters. Rejections and duplicates are
	// global by construction: both fire before a shard is touched (a
	// rejected or replayed profile claims an attacker-chosen minute
	// and must not allocate one), so there is no shard to charge them
	// to. Quarantines are per-shard (see minuteShard.quarantined).
	rejectedCount  atomic.Int64
	duplicateCount atomic.Int64
	wireRejected   atomic.Int64
	// staleRejected counts uploads turned away by the wall-clock
	// admission window (counted by the System with the gate armed).
	staleRejected atomic.Int64

	// metrics, when non-nil, receives the pipeline-stage histograms
	// recorded by linkBurst (link-lock wait, Stage, CommitStaged).
	// NewSystem attaches the registry; a bare Store records nothing.
	metrics *obs.Registry

	// Retention-eviction timing (satellite of the fsync-visibility
	// fix): evictions counts completed shard evictions, evictionNS the
	// cumulative wall time spent writing segments and dropping shards.
	evictions  atomic.Int64
	evictionNS atomic.Int64
	// reloads counts successful segment reloads, reloadNS their
	// cumulative wall time (read, decode, restore, install).
	reloads  atomic.Int64
	reloadNS atomic.Int64
}

// StoreConfig parameterizes the VP database. Retention is configured
// through DurabilityConfig: OpenDurable alone sets the unexported
// fields, so segments never spill without a WAL beside them.
type StoreConfig struct {
	// DSRCRange is the viewlink proximity radius used by the
	// incremental linker; zero selects the 400 m default.
	DSRCRange float64
	// segmentDir is where evicted minutes are spilled as per-minute
	// segment files (retention.go). Empty disables spilling, and with
	// it retention.
	segmentDir string
	// retentionMinutes is the resident horizon: when positive (and
	// segmentDir is set), shards older than the newest ingested minute
	// minus this many minutes are spilled to disk and evicted by
	// ApplyRetention. Zero keeps every minute resident forever.
	retentionMinutes int
	// residentColdMinutes bounds how many evicted minutes reloaded by
	// cold queries may stay resident at once (LRU); zero selects 2.
	residentColdMinutes int
}

// minuteShard holds one unit-time window's profiles and its
// incrementally maintained viewmap.
type minuteShard struct {
	// linkMu serializes every writer of the minute's builder: a burst
	// holds it from Stage through CommitStaged, a checkpoint's spill
	// while it writes the segment, and eviction from the segment cut to
	// the shard drop. Readers never take it, so an investigation never
	// waits for a Stage.
	linkMu sync.Mutex
	// mu guards the reader-visible state below; commits take it after
	// linkMu, for the graph splice only.
	mu sync.Mutex
	// profiles is the dense slab of every stored profile of the
	// minute, in ingest order — including profiles the linker rejected
	// as implausible (they are in the database; construction decides
	// what to link).
	profiles []*vp.Profile
	builder  *core.IncrementalBuilder
	// cache holds per-site incremental extractions of the builder's
	// graph, keyed by site rectangle: each SiteView keeps its induced
	// subgraph patched under the minute's ingest instead of
	// re-extracting per epoch. Bounded by viewmapCacheMax; a full cache
	// evicts the site refreshed least recently. cacheSeq stamps the
	// refreshes.
	cache    map[geo.Rect]*siteCacheEntry
	cacheSeq uint64
	// changed is closed and replaced (under mu) whenever a commit lands
	// in the shard, waking investigation watch streams; eviction closes
	// it without replacement. Never nil.
	changed chan struct{}
	// quarantined counts profiles stored in the slab that the
	// incremental linker refused to link (implausible trajectories):
	// they are in the database — construction decides what to link —
	// but can never join this minute's viewmap.
	quarantined int
	// cold marks a shard reloaded from its segment at or behind the
	// retention horizon; cold shards live in the LRU-bounded cold
	// resident set rather than the retention horizon.
	cold bool
	// dirty marks a shard with ingest not yet in its segment file; a
	// spill writes the segment only when set, and clears it.
	dirty bool
	// evicted marks a shard dropped from the shard map; an ingest that
	// raced the eviction re-resolves its shard instead of writing into
	// the orphan. Set under both linkMu and mu, so either lock reads it.
	evicted bool
	// lastTouch is the recency stamp for the cold-set LRU.
	lastTouch atomic.Uint64
}

// siteCacheEntry is one cached site extraction with the shard's
// cacheSeq stamp of its latest refresh.
type siteCacheEntry struct {
	sv   *core.SiteView
	used uint64
}

// noMinute is newestMinute's value before the first ingest.
const noMinute = int64(-1) << 62

// viewmapCacheMax bounds the per-shard site-viewmap cache. Distinct
// investigation sites per minute are few (an incident has one site;
// period investigations reuse it across minutes), so a handful of
// entries suffices.
const viewmapCacheMax = 8

// NewStore creates an empty database with default configuration.
func NewStore() *Store { return NewStoreWith(StoreConfig{}) }

// NewStoreWith creates an empty database with the given configuration.
func NewStoreWith(cfg StoreConfig) *Store {
	s := &Store{
		cfg:      cfg,
		shards:   make(map[int64]*minuteShard),
		segments: make(map[int64]uint64),
	}
	s.newestMinute.Store(noMinute)
	return s
}

// ErrDuplicate is returned when a VP identifier is already stored.
var ErrDuplicate = errors.New("server: VP already stored")

// ErrNoMinute is returned by the viewmap accessors when the queried
// minute holds no stored profiles at all — neither resident nor in a
// segment file. It marks the benign "nothing happened that minute"
// case, as distinct from transient failures (an unreadable segment)
// that callers must propagate rather than misreport as empty.
var ErrNoMinute = errors.New("server: no profiles stored for minute")

// shard returns the shard for minute m, or nil when none exists.
func (s *Store) shard(m int64) *minuteShard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[m]
}

// newShard builds an empty shard for minute m (not yet installed).
func (s *Store) newShard(m int64) *minuteShard {
	return &minuteShard{
		builder: core.NewIncrementalBuilder(core.IncrementalConfig{
			Minute:           m,
			DSRCRange:        s.cfg.DSRCRange,
			RequirePlausible: true,
		}),
		cache:   make(map[geo.Rect]*siteCacheEntry),
		changed: make(chan struct{}),
	}
}

// ensureShard returns the shard for minute m, creating it if needed.
// An evicted minute is reloaded from its segment first, so a late
// ingest into an old minute joins the minute's full population rather
// than a fresh shard shadowing it. Only callers that have already
// claimed a profile's identifier for this minute may create shards.
func (s *Store) ensureShard(m int64) (*minuteShard, error) {
	if sh := s.shard(m); sh != nil {
		return sh, nil
	}
	s.mu.RLock()
	_, spilled := s.segments[m]
	s.mu.RUnlock()
	if spilled {
		return s.reloadSegment(m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[m]
	if sh == nil {
		sh = s.newShard(m)
		s.shards[m] = sh
	}
	return sh, nil
}

// noteMinute advances the newest-minute watermark (the retention
// horizon's anchor) to m if it is ahead.
func (s *Store) noteMinute(m int64) {
	for {
		cur := s.newestMinute.Load()
		if m <= cur || s.newestMinute.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Put validates and stores a profile. Duplicate identifiers are
// rejected: an identifier is the hash of a secret only its owner
// holds, so a collision is either a replay or an attack — and it is
// rejected before the minute shard is even created, since the minute
// a replay claims is attacker-chosen. The accepted profile is linked
// into its minute's viewmap before Put returns.
func (s *Store) Put(p *vp.Profile) error {
	if err := p.Validate(); err != nil {
		s.rejectedCount.Add(1)
		return fmt.Errorf("server: rejecting VP: %w", err)
	}
	_, err := s.commit([]*vp.Profile{p}, true, nil)
	return err
}

// BatchResult summarizes one batched ingest.
type BatchResult struct {
	// Stored counts profiles accepted into the database.
	Stored int
	// Duplicates counts profiles rejected for an already-stored
	// identifier.
	Duplicates int
	// Rejected counts profiles that failed validation (or, on the
	// HTTP path, failed to parse).
	Rejected int
}

// commit is the store's one ingest call: Put, every upload path, WAL
// replay and snapshot load end here. It claims each
// profile's identifier — duplicates, from other uploads or within ps,
// drop out before a shard is created for an attacker-chosen minute —
// then groups the claimed profiles by minute and links one burst per
// minute (submitBurst), charging the bursts' link-lock wait, Stage and
// commit spans to tr. The profiles must have passed
// vp.Profile.Validate. count says whether the attack-facing counters
// (duplicates, rejections) advance; WAL replay passes false, since a
// replayed profile was counted when it was first admitted. commit
// returns the batch's counts and a per-profile error, nil when every
// profile was stored: the first rejection, else ErrDuplicate when an
// identifier was already claimed.
func (s *Store) commit(ps []*vp.Profile, count bool, tr *obs.Trace) (BatchResult, error) {
	var res BatchResult
	var first error
	byMinute := make(map[int64][]*vp.Profile)
	for _, p := range ps {
		if _, dup := s.ids.LoadOrStore(p.ID(), p); dup {
			res.Duplicates++
			if count {
				s.duplicateCount.Add(1)
			}
			continue
		}
		byMinute[p.Minute()] = append(byMinute[p.Minute()], p)
	}
	for m, group := range byMinute {
		b, err := s.submitBurst(m, group, count, tr)
		if err != nil {
			// The minute's segment is unreadable (or the store is shut
			// down); release the claims so a retry after the operator
			// intervenes can still land.
			for _, p := range group {
				s.ids.Delete(p.ID())
			}
			res.Rejected += len(group)
			if count {
				s.rejectedCount.Add(int64(len(group)))
			}
			if first == nil {
				first = err
			}
			continue
		}
		res.Stored += b.stored
		res.Rejected += b.rejected
		for _, err := range b.errs {
			if first == nil && err != nil {
				// linkBurst already released the identifier claim and
				// aligned the counters.
				first = err
			}
		}
	}
	if first == nil && res.Duplicates > 0 {
		first = ErrDuplicate
	}
	return res, first
}

// hasID reports whether an identifier is claimed — by a live profile
// or an evicted marker — without triggering any segment reload. The
// ingest journal uses it as an advisory pre-filter so replayed
// duplicates do not cost WAL space and fsyncs; the authoritative
// rejection still happens at the commit's atomic claim.
func (s *Store) hasID(id vd.VPID) bool {
	_, ok := s.ids.Load(id)
	return ok
}

// Get returns the profile with the given identifier. An identifier
// whose minute was evicted transparently reloads the minute's segment
// (the profile — and its whole shard — becomes cold-resident).
func (s *Store) Get(id vd.VPID) (*vp.Profile, bool) {
	v, ok := s.ids.Load(id)
	if !ok {
		return nil, false
	}
	if p, ok := v.(*vp.Profile); ok {
		return p, true
	}
	ref := v.(evictedRef)
	if _, err := s.reloadSegment(ref.minute); err != nil {
		return nil, false
	}
	v, ok = s.ids.Load(id)
	if !ok {
		return nil, false
	}
	p, ok := v.(*vp.Profile)
	return p, ok
}

// residentShard resolves minute m to a resident shard, reloading its
// segment when the minute was evicted; nil when the minute holds no
// profiles at all. Cold shards are recency-stamped for the LRU.
func (s *Store) residentShard(m int64) (*minuteShard, error) {
	sh := s.shard(m)
	if sh == nil {
		s.mu.RLock()
		_, spilled := s.segments[m]
		s.mu.RUnlock()
		if !spilled {
			return nil, nil
		}
		var err error
		if sh, err = s.reloadSegment(m); err != nil {
			return nil, err
		}
	}
	if sh.cold {
		s.touch(sh)
	}
	return sh, nil
}

// Minute returns the profiles recorded during the given unit-time
// window, in ingest order. The returned slice is a copy and safe to
// retain.
func (s *Store) Minute(m int64) []*vp.Profile {
	sh, err := s.residentShard(m)
	if sh == nil || err != nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*vp.Profile, len(sh.profiles))
	copy(out, sh.profiles)
	return out
}

// Minutes returns the unit-time windows with at least one stored
// profile — resident or evicted to a segment file — ascending.
func (s *Store) Minutes() []int64 {
	s.mu.RLock()
	seen := make(map[int64]bool, len(s.shards)+len(s.segments))
	for m := range s.shards {
		seen[m] = true
	}
	for m := range s.segments {
		seen[m] = true
	}
	s.mu.RUnlock()
	out := make([]int64, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored profiles.
func (s *Store) Len() int { return int(s.count.Load()) }

// MinuteCount returns the number of unit-time windows holding at
// least one profile — resident or evicted — without materializing the
// minute list.
func (s *Store) MinuteCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.shards)
	for m := range s.segments {
		if _, ok := s.shards[m]; !ok {
			n++
		}
	}
	return n
}

// TrustedCount returns the number of stored trusted profiles.
func (s *Store) TrustedCount() int { return int(s.trustedCount.Load()) }

// IngestStats are the store's attack-facing ingest counters: how many
// uploads the admission pipeline turned away, and at which gate.
type IngestStats struct {
	// Rejected counts profiles that failed §5.1.1 structural
	// validation (truncated minutes, inconsistent identifiers,
	// poisoned filters).
	Rejected int `json:"rejected"`
	// WireRejected counts wire records that did not even parse into a
	// profile (counted by the System on the HTTP paths).
	WireRejected int `json:"wireRejected"`
	// Duplicates counts uploads rejected for an already-claimed
	// identifier — replays, whatever minute they pretended to be from.
	Duplicates int `json:"duplicates"`
	// Quarantined counts stored profiles the incremental linker
	// refused to link (implausible trajectories), summed over shards.
	Quarantined int `json:"quarantined"`
	// Stale counts uploads rejected by the wall-clock admission
	// window (Config.MaxUploadLagMinutes); zero with the gate unarmed.
	Stale int `json:"stale"`
}

// IngestStatsSnapshot reads the current ingest counters.
func (s *Store) IngestStatsSnapshot() IngestStats {
	return s.IngestStatsFrom(s.ShardStats())
}

// IngestStatsFrom builds the ingest counters from an already-taken
// ShardStats pass: callers that surface both (the stats endpoint)
// lock each shard once, and the quarantine total is consistent with
// the per-shard counts by construction.
func (s *Store) IngestStatsFrom(shards []ShardStat) IngestStats {
	st := IngestStats{
		Rejected:     int(s.rejectedCount.Load()),
		WireRejected: int(s.wireRejected.Load()),
		Duplicates:   int(s.duplicateCount.Load()),
		Stale:        int(s.staleRejected.Load()),
	}
	for _, sh := range shards {
		st.Quarantined += sh.Quarantined
	}
	return st
}

// noteWireRejected records n wire records that failed to parse into
// profiles; the System's HTTP upload paths call this so the counter
// sits next to the other admission-gate counters.
func (s *Store) noteWireRejected(n int) {
	if n > 0 {
		s.wireRejected.Add(int64(n))
	}
}

// noteStaleRejected counts uploads refused by the wall-clock
// admission window.
func (s *Store) noteStaleRejected(n int) {
	if n > 0 {
		s.staleRejected.Add(int64(n))
	}
}

// ShardStat describes one minute shard's attack-facing state.
type ShardStat struct {
	// Minute is the shard's unit-time window.
	Minute int64 `json:"minute"`
	// VPs counts profiles stored in the shard's slab.
	VPs int `json:"vps"`
	// Quarantined counts slab profiles the linker refused to link.
	Quarantined int `json:"quarantined"`
	// Epoch is the shard builder's ingest epoch.
	Epoch uint64 `json:"epoch"`
}

// ShardStats returns one ShardStat per minute shard, ascending by
// minute.
func (s *Store) ShardStats() []ShardStat {
	s.mu.RLock()
	minutes := make([]int64, 0, len(s.shards))
	shards := make([]*minuteShard, 0, len(s.shards))
	for m, sh := range s.shards {
		minutes = append(minutes, m)
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	out := make([]ShardStat, len(shards))
	for i, sh := range shards {
		sh.mu.Lock()
		out[i] = ShardStat{
			Minute:      minutes[i],
			VPs:         len(sh.profiles),
			Quarantined: sh.quarantined,
			Epoch:       sh.builder.Epoch(),
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Minute < out[j].Minute })
	return out
}

// MinuteEpoch returns the ingest epoch of a minute's incremental
// builder (zero for an empty minute). The epoch advances on every
// linked ingest; an unchanged epoch guarantees cached viewmaps for
// the minute are still current.
func (s *Store) MinuteEpoch(m int64) uint64 {
	sh, err := s.residentShard(m)
	if sh == nil || err != nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.builder.Epoch()
}

// ViewmapFor returns the viewmap for an investigation site and minute
// (SiteViewmap without the identity stamps, for callers that do not
// cache verdicts).
func (s *Store) ViewmapFor(site geo.Rect, minute int64) (*core.Viewmap, error) {
	vm, _, _, _, _, err := s.SiteViewmap(site, minute)
	return vm, err
}

// SiteViewmap returns the viewmap for an investigation site and
// minute, together with its in-site node ids (core.SiteView.InSite),
// its content epoch and extraction generation (see
// core.SiteView.Refresh) and the minute's builder epoch, all read
// under the same shard lock as the extraction. The minute's maintained
// graph is already linked and each site keeps a patched induced
// subgraph, so a repeated site pays only for the ingest delta since
// its last extraction — zero when the minute's content around the site
// is unchanged.
//
// The returned viewmap is immutable; later ingests produce new
// viewmaps rather than mutating published ones, so callers may use it
// without locking, concurrently with further uploads. A site with a NaN
// or infinite coordinate is refused.
func (s *Store) SiteViewmap(site geo.Rect, minute int64) (vm *core.Viewmap, inSite []int, contentEpoch, gen, minuteEpoch uint64, err error) {
	// The site keys the shard's cache, and a NaN key can never be found
	// or evicted again; a site spanning an infinity has a NaN centre.
	for _, v := range [4]float64{site.Min.X, site.Min.Y, site.Max.X, site.Max.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, 0, 0, 0, fmt.Errorf("server: site %v has a non-finite coordinate", site)
		}
	}
	sh, err := s.residentShard(minute)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	if sh == nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w %d", ErrNoMinute, minute)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.cache[site]
	if e == nil {
		if len(sh.cache) >= viewmapCacheMax {
			// Deterministic LRU: evict the site refreshed least recently,
			// so which site pays for a fresh extraction never depends on
			// map iteration order.
			var stalest geo.Rect
			found := false
			for k, c := range sh.cache {
				if !found || c.used < sh.cache[stalest].used {
					stalest, found = k, true
				}
			}
			delete(sh.cache, stalest)
		}
		e = &siteCacheEntry{sv: core.NewSiteView(sh.builder, site, 0)}
		sh.cache[site] = e
	}
	sh.cacheSeq++
	e.used = sh.cacheSeq
	vm, contentEpoch, gen, err = e.sv.Refresh()
	return vm, e.sv.InSite(), contentEpoch, gen, sh.builder.Epoch(), err
}

// MinuteChange returns the minute's current builder epoch and a
// channel that is closed on the next commit into the minute (or when
// the minute's shard is evicted — re-resolve and re-arm). The channel
// is read under the same shard lock that commits advance the epoch
// under, so a caller that reads (epoch, ch), then finds no fresh
// content at that epoch, can safely block on ch: any later commit
// closes it. A nil channel means the minute is not resident; callers
// poll instead of blocking. For an evicted minute the epoch is the one
// its segment restores, read without a reload; for a minute with
// nothing stored it is zero.
func (s *Store) MinuteChange(m int64) (uint64, <-chan struct{}) {
	s.mu.RLock()
	sh := s.shards[m]
	epoch := s.segments[m]
	s.mu.RUnlock()
	if sh == nil {
		return epoch, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.builder.Epoch(), sh.changed
}
