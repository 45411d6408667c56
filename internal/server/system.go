package server

import (
	"bytes"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/evidence"
	"viewmap/internal/geo"
	"viewmap/internal/obs"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// System is the ViewMap authority service: it owns the VP database,
// runs investigations, and hosts the evidence desk that solicits,
// verifies and pays for videos in untraceable cash.
type System struct {
	store    *Store
	bank     *reward.Bank
	evidence *evidence.Service

	// wal is the ingest write-ahead log; nil on a non-durable system
	// (NewSystem). OpenDurable sets it together with durable.
	wal *wal
	// durable is the durability runtime (snapshot barrier, background
	// goroutines, recovery counters); nil when wal is nil.
	durable *durabilityRuntime

	// authorityToken gates trusted-VP uploads and investigations.
	authorityToken string

	// overload holds the per-endpoint-class admission gates the HTTP
	// handler sheds load through (overload.go).
	overload *overloadLimiter

	// metrics is the observability registry (telemetry.go); never nil.
	metrics *obs.Registry
	// now is the admission clock (Config.Now, defaulted to time.Now);
	// maxUploadLag arms the stale-minute upload gate when positive.
	now          func() time.Time
	maxUploadLag int
	// slowRequest is the tracing threshold: a request slower than this
	// logs one structured line with its span breakdown; zero disables.
	slowRequest time.Duration

	// verdicts caches TrustRank verifications, and the reports built
	// from them, per investigated (site, minute). Entry
	// identity is the extraction's content epoch (core.SiteView.Refresh):
	// a deterministic function of the minute's graph, so a verdict
	// survives viewmap re-extraction and even a segment evict/reload of
	// the whole minute — the replayed minute reproduces the same content
	// epochs bit for bit. Each entry is also stamped with the minute's
	// builder epoch, which investigateAt compares before it touches the
	// minute: an equal builder epoch means an identical graph, so the
	// cached report answers without a segment reload or an extraction.
	// When the content did change, the score vector the cached
	// verification stopped at warm-starts the re-verification
	// (verifiedSite). Bounded by
	// verdictCacheMax with deterministic least-recently-used eviction
	// (verdictSeq).
	verdictMu  sync.Mutex
	verdicts   map[investigationKey]*verdictEntry
	verdictSeq uint64
}

// investigationKey identifies one repeated investigation.
type investigationKey struct {
	site   geo.Rect
	minute int64
}

// verdictEntry is one cached verification outcome.
type verdictEntry struct {
	// epoch is the content epoch of the extraction the verdict scored;
	// gen is that extraction's generation (the verdict's score vector
	// warm-starts later verifications only within the same generation,
	// whose node-id space extends the scored one as a prefix).
	epoch, gen uint64
	// minuteEpoch is the minute's builder epoch at which report was
	// last confirmed: set when the verdict is scored, and raised by a
	// content-epoch hit at a later builder epoch (ingest outside the
	// site's coverage). A verified entry's is at least 1, because a
	// verdict needs a linked trusted VP.
	minuteEpoch uint64
	verdict     *core.Verdict
	// report is the investigation report of the scored extraction. Like
	// the verdict it depends only on the content epoch; its Members is
	// the gauge for the perturbation cutoff (warmGrowthMax) on later
	// warm starts. Callers get copies of its Legitimate slice.
	report InvestigationReport
	// used is the recency stamp (verdictSeq at last hit) the LRU
	// eviction orders by.
	used uint64
}

// verdictCacheMax bounds the verdict cache; investigations target few
// distinct (site, minute) pairs at a time.
const verdictCacheMax = 64

// warmGrowthMax caps the graph perturbation a warm start will chase: a
// viewmap that grew past this multiple of the scored one re-verifies
// from the seed vector, which certifies just as exactly (the previous
// vector carries too little of the mass layout to start closer).
const warmGrowthMax = 8

// Config parameterizes the system.
type Config struct {
	// AuthorityToken authenticates police/authority requests. Empty
	// generates a random token (retrievable via AuthorityToken).
	AuthorityToken string
	// BankBits sizes the blind-signature RSA key; zero selects 2048.
	BankBits int
	// Bank allows injecting a pre-generated bank (tests); otherwise a
	// fresh key is generated.
	Bank *reward.Bank
	// Store parameterizes the sharded VP database (DSRC range,
	// segment spilling and retention).
	Store StoreConfig
	// Evidence parameterizes the evidence subsystem (redaction frame
	// dimensions, blur parameters, video size cap).
	Evidence evidence.Config
	// Overload bounds concurrent work per endpoint class on the HTTP
	// surface (overload.go); the zero value selects generous defaults.
	Overload OverloadConfig
	// SlowRequest is the tracing threshold: a request slower than this
	// emits one structured log line with its per-stage span breakdown.
	// Zero disables slow-request logging (the default; viewmap-server
	// arms it with -slow-request).
	SlowRequest time.Duration
	// Now, when non-nil, replaces time.Now as the system's admission
	// clock. Everything time-dependent on the upload admission path
	// reads the clock through this seam, so clock-skew tests drive
	// simulated minutes without sleeping.
	Now func() time.Time
	// MaxUploadLagMinutes arms wall-clock admission on the anonymous
	// upload paths: a profile whose minute window differs from the
	// admission clock's current minute by more than this is rejected
	// as stale before it costs WAL space or an fsync. Zero (the
	// default) disables the check — minutes stay purely
	// content-derived, as the offline reproduction assumes. Trusted
	// uploads are exempt: the authority backfills windows
	// deliberately.
	MaxUploadLagMinutes int
}

// NewSystem creates a system service.
func NewSystem(cfg Config) (*System, error) {
	token := cfg.AuthorityToken
	if token == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("server: generating authority token: %w", err)
		}
		token = fmt.Sprintf("%x", b)
	}
	bank := cfg.Bank
	if bank == nil {
		bits := cfg.BankBits
		if bits == 0 {
			bits = 2048
		}
		var err error
		bank, err = reward.NewBank(bits)
		if err != nil {
			return nil, err
		}
	}
	store := NewStoreWith(cfg.Store)
	ev, err := evidence.NewService(cfg.Evidence, store, bank)
	if err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	sys := &System{
		store:          store,
		bank:           bank,
		evidence:       ev,
		authorityToken: token,
		overload:       newOverloadLimiter(cfg.Overload),
		metrics:        obs.NewRegistry(knownEndpoints(), admissionClassNames()),
		slowRequest:    cfg.SlowRequest,
		now:            now,
		maxUploadLag:   cfg.MaxUploadLagMinutes,
		verdicts:       make(map[investigationKey]*verdictEntry),
	}
	// Pipeline stages recorded below the HTTP layer (link-lock wait,
	// Stage, CommitStaged) and the admission gates' queue-depth sampling
	// share the system's registry.
	store.metrics = sys.metrics
	sys.overload.metrics = sys.metrics
	// Verdict cache entries deliberately outlive shard eviction: their
	// builder-epoch stamp is recorded with the minute's segment, so a
	// repeat query against an unchanged evicted minute is answered from
	// the cache without reloading it; and they are keyed by content
	// epoch, which a segment reload reproduces bit for bit (the
	// evict-then-reload equality invariant), so a reloaded minute reuses
	// its verdicts instead of re-running TrustRank.
	// Board and bank mutations journal through the system; no-ops
	// until OpenDurable attaches a WAL.
	ev.SetJournal(sys)
	return sys, nil
}

// AuthorityToken returns the token authorities authenticate with.
func (sys *System) AuthorityToken() string { return sys.authorityToken }

// Store exposes the VP database (read-mostly; used by harnesses).
func (sys *System) Store() *Store { return sys.store }

// Bank exposes the cash issuer's public key side.
func (sys *System) Bank() *reward.Bank { return sys.bank }

// ErrUnauthorized is returned for requests with a bad authority token.
var ErrUnauthorized = errors.New("server: invalid authority token")

// ErrStaleMinute is returned when wall-clock admission is armed
// (Config.MaxUploadLagMinutes) and an anonymous upload's minute window
// falls outside the tolerated lag around the admission clock.
var ErrStaleMinute = errors.New("server: profile minute outside the upload admission window")

// staleMinute reports whether a profile minute falls outside the
// armed admission window around the clock's current minute. Always
// false when MaxUploadLagMinutes is unset.
func (sys *System) staleMinute(m int64) bool {
	if sys.maxUploadLag <= 0 {
		return false
	}
	d := sys.now().Unix()/vd.SegmentSeconds - m
	if d < 0 {
		d = -d
	}
	return d > int64(sys.maxUploadLag)
}

// checkAuthority validates an authority token in constant time.
func (sys *System) checkAuthority(token string) error {
	if subtle.ConstantTimeCompare([]byte(token), []byte(sys.authorityToken)) != 1 {
		return ErrUnauthorized
	}
	return nil
}

// UploadVP ingests an anonymous VP upload (wire format) as a batch of
// one through the batch path (uploadVPBatch). On a durable system the
// record is appended to the WAL — and fsynced — before the store
// commit, so a success return means the profile survives a crash
// (ack-after-append); stale, invalid and already-claimed profiles are
// rejected without touching the log.
func (sys *System) UploadVP(data []byte) error {
	return sys.uploadVP(data, false, nil)
}

// UploadTrustedVP ingests a VP from an authority vehicle, as UploadVP
// does; the profile is marked trusted, exempt from the stale-minute
// gate, and becomes a trust seed for viewmaps.
func (sys *System) UploadTrustedVP(token string, data []byte) error {
	if err := sys.checkAuthority(token); err != nil {
		return err
	}
	return sys.uploadVP(data, true, nil)
}

// uploadVP hands one wire record to uploadVPBatch as a batch of one and
// returns its outcome: the batch's error, else the record's own.
func (sys *System) uploadVP(data []byte, trusted bool, tr *obs.Trace) error {
	_, first, err := sys.uploadVPBatch([][]byte{data}, trusted, tr)
	if err != nil {
		return err
	}
	return first
}

// maxBatchRecords bounds one batched upload; at ~5 KB per VP this
// stays well under the request-body cap.
const maxBatchRecords = 1 << 14

// UploadVPBatch ingests a batched anonymous upload (the POST /v1/vp/batch
// wire format of vp.MarshalBatch). Malformed records are counted as
// rejected without sinking the rest of the batch; a corrupted frame
// (truncated length or body, trailing bytes, oversized batch) aborts
// with an error.
func (sys *System) UploadVPBatch(data []byte) (BatchResult, error) {
	return sys.uploadBatchBody(data, nil)
}

// uploadBatchBody splits a batch body into its wire records and ingests
// them (uploadVPBatch), carrying the request's trace.
func (sys *System) uploadBatchBody(data []byte, tr *obs.Trace) (BatchResult, error) {
	records, err := vp.SplitBatch(data, maxBatchRecords)
	if err != nil {
		return BatchResult{}, err
	}
	res, _, err := sys.uploadVPBatch(records, false, tr)
	return res, err
}

// uploadVPBatch is the one ingest path every upload takes: decode,
// validate, journal, commit. Records are anonymous uploads, or with
// trusted set a single authority upload. It counts each record's
// failure (stale, malformed, invalid, duplicate) in the result and the
// store's gate counters, and returns the first such failure as first;
// err is a failure of the whole batch (the journal), with nothing
// stored. tr, nil for internal callers, receives the decode+validate
// span timed here, the WAL append (journalIngest), and the link-lock
// wait, Stage and commit spans of the bursts it links.
func (sys *System) uploadVPBatch(records [][]byte, trusted bool, tr *obs.Trace) (res BatchResult, first error, err error) {
	decodeStart := time.Now()
	fail := func(e error) {
		res.Rejected++
		if first == nil {
			first = e
		}
	}
	// Zero-copy decode: records are grouped by minute with a wire peek
	// (no decode) and each minute group decodes into its own contiguous
	// arena — the slabs that land in a shard are per-shard, and decode
	// allocates per burst, not per record.
	counts := make(map[int64]int)
	for _, rec := range records {
		if m, ok := vp.PeekRecordMinute(rec); ok {
			counts[m]++
		}
	}
	arenas := make(map[int64]*vp.BatchArena, len(counts))
	valid := make([]*vp.Profile, 0, len(records))
	var journalRecs [][]byte
	for _, rec := range records {
		var p *vp.Profile
		var err error
		if m, ok := vp.PeekRecordMinute(rec); ok {
			if !trusted && sys.staleMinute(m) {
				// Stale-minute admission (armed via MaxUploadLagMinutes):
				// a skewed record is turned away on the wire peek alone —
				// no decode, no arena space, no WAL append. The authority
				// backfills windows deliberately, so trusted uploads are
				// exempt.
				sys.store.noteStaleRejected(1)
				fail(fmt.Errorf("%w (minute %d)", ErrStaleMinute, m))
				continue
			}
			a := arenas[m]
			if a == nil {
				a = vp.NewBatchArena(counts[m])
				arenas[m] = a
			}
			p, err = a.Unmarshal(rec)
		} else {
			// Not even profile-shaped; the plain decoder produces the
			// proper per-record error.
			p, err = vp.Unmarshal(rec)
		}
		if err != nil {
			sys.store.noteWireRejected(1)
			fail(err)
			continue
		}
		p.Trusted = trusted
		// The upload's only validation pass: the store commit takes the
		// result on trust, so a record's structural checks run exactly
		// once per upload.
		if err := p.Validate(); err != nil {
			sys.store.rejectedCount.Add(1)
			fail(fmt.Errorf("server: rejecting VP: %w", err))
			continue
		}
		valid = append(valid, p)
		// Journal only records that can plausibly be stored: validation
		// failures and already-claimed identifiers replay to rejections
		// anyway, so logging them would let replayed or garbage batches
		// consume WAL space and fsyncs for nothing. The check is
		// advisory — the commit's atomic claim stays authoritative, and
		// a racing duplicate that slips into the log replays to a
		// no-op.
		if sys.wal != nil && !sys.store.hasID(p.ID()) {
			journalRecs = append(journalRecs, rec)
		}
	}
	decodeNS := time.Since(decodeStart)
	sys.metrics.Stage(obs.StageDecode).Record(int64(decodeNS))
	tr.Observe(obs.StageDecode, decodeNS)
	if len(journalRecs) > 0 {
		// Ack-after-append: the admitted records hit the log (and the
		// disk) before any profile commits.
		release, err := sys.journalIngest(journalRecs, trusted, tr)
		if err != nil {
			return BatchResult{}, nil, err
		}
		defer release()
	}
	put, err := sys.store.commit(valid, true, tr)
	if first == nil {
		first = err
	}
	put.Rejected += res.Rejected
	return put, first, nil
}

// batchWireFrags frames wire records with the vp.MarshalRawBatch
// layout as a fragment list for the WAL's vectored append: one scratch
// buffer holds the count header and every length prefix, and the
// record fragments are the caller's sub-slices of the request body.
// Concatenated, the fragments are byte-identical to
// vp.MarshalRawBatch(recs).
func batchWireFrags(recs [][]byte) [][]byte {
	// Pre-sized so the appends below never reallocate out from under
	// the fragment sub-slices already taken.
	hdrs := make([]byte, 4, 4+4*len(recs))
	binary.BigEndian.PutUint32(hdrs[:4], uint32(len(recs)))
	frags := make([][]byte, 0, 1+2*len(recs))
	frags = append(frags, hdrs[:4])
	for _, rec := range recs {
		off := len(hdrs)
		hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(len(rec)))
		frags = append(frags, hdrs[off:off+4], rec)
	}
	return frags
}

// InvestigationReport summarizes one viewmap verification.
type InvestigationReport struct {
	Minute     int64
	Members    int
	Edges      int
	InSite     int
	Legitimate []vd.VPID
}

// Investigate fetches (or, on first sight of the site, extracts from
// the minute's incrementally maintained graph) the viewmap for an
// incident minute and site and verifies it with TrustRank; a repeat
// investigation of an unchanged minute is answered from the verdict
// cache, even when the minute is evicted. It is read-only: soliciting
// the legitimate VPs' videos is OpenSolicitation's job. Authority only.
func (sys *System) Investigate(token string, site geo.Rect, minute int64) (*InvestigationReport, error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, err
	}
	report, _, err := sys.investigateAt(site, minute)
	return report, err
}

// verify extracts the viewmap for (site, minute) from the minute's
// incrementally maintained graph and verifies it with TrustRank. It
// also returns the viewmap's in-site node ids, the verdict's report,
// whose Legitimate slice is the cache's and must not be handed out,
// and the extraction's content epoch — the identity the watch endpoint
// dedups and resumes on.
func (sys *System) verify(site geo.Rect, minute int64) (*core.Viewmap, []int, *core.Verdict, InvestigationReport, uint64, error) {
	vm, inSite, epoch, gen, minuteEpoch, err := sys.store.SiteViewmap(site, minute)
	if err != nil {
		return nil, nil, nil, InvestigationReport{}, 0, err
	}
	verdict, report, err := sys.verifiedSite(vm, inSite, epoch, gen, minuteEpoch, site, minute)
	return vm, inSite, verdict, report, epoch, err
}

// investigateAt verifies (site, minute) and returns a copy of its
// report, with the extraction's content epoch. While the minute's
// builder epoch, read without a reload, equals the cached entry's
// stamp, the graph is the one the entry's report came from, so the
// report is answered from the cache whether the minute is resident or
// evicted: no segment reload, no extraction, no verification.
func (sys *System) investigateAt(site geo.Rect, minute int64) (*InvestigationReport, uint64, error) {
	now, _ := sys.store.MinuteChange(minute)
	var report InvestigationReport
	var epoch uint64
	sys.verdictMu.Lock()
	e := sys.verdicts[investigationKey{site: site, minute: minute}]
	hit := e != nil && e.minuteEpoch == now
	if hit {
		sys.verdictSeq++
		e.used = sys.verdictSeq
		report, epoch = e.report, e.epoch
	}
	sys.verdictMu.Unlock()
	if !hit {
		var err error
		if _, _, _, report, epoch, err = sys.verify(site, minute); err != nil {
			return nil, 0, err
		}
	}
	report.Legitimate = slices.Clone(report.Legitimate)
	return &report, epoch, nil
}

// InvestigateSnapshot verifies (site, minute) like Investigate and
// returns the extraction's content epoch alongside the report. The
// watch endpoint streams reports by calling this each time the
// minute's epoch advances, emitting only when the content epoch moved
// past the previously delivered one. Authority only.
func (sys *System) InvestigateSnapshot(token string, site geo.Rect, minute int64) (*InvestigationReport, uint64, error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, 0, err
	}
	return sys.investigateAt(site, minute)
}

// VPVerdict is one viewmap member's wire-visible verdict, as returned
// by InvestigateReport: enough for an external harness — or an
// auditor — to score a verification run per VP without access to the
// in-memory graph.
type VPVerdict struct {
	// ID is the member's VP identifier.
	ID vd.VPID
	// Trusted marks authority VPs.
	Trusted bool
	// InSite reports whether the claimed trajectory enters the
	// investigated site.
	InSite bool
	// Legitimate reports whether Algorithm 1 marked the VP LEGITIMATE.
	Legitimate bool
	// Hops is the viewlink distance to the nearest trusted VP (-1
	// when unreachable).
	Hops int
}

// FullReport is an InvestigationReport plus the per-VP verdicts of
// every viewmap member, in ascending identifier order.
type FullReport struct {
	InvestigationReport
	// Verdicts holds one entry per viewmap member.
	Verdicts []VPVerdict
}

// InvestigateReport verifies (site, minute) like Investigate and
// returns the per-VP verdict of every viewmap member — the scoring
// surface the online attack campaigns (internal/attack.Online) are
// graded through. Authority only.
func (sys *System) InvestigateReport(token string, site geo.Rect, minute int64) (*FullReport, error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, err
	}
	vm, inSite, verdict, summary, _, err := sys.verify(site, minute)
	if err != nil {
		return nil, err
	}
	summary.Legitimate = slices.Clone(summary.Legitimate)
	report := &FullReport{
		InvestigationReport: summary,
		Verdicts:            make([]VPVerdict, vm.Len()),
	}
	hops := vm.HopsFromTrusted()
	for i, p := range vm.Profiles {
		report.Verdicts[i] = VPVerdict{
			ID:      p.ID(),
			Trusted: p.Trusted,
			Hops:    hops[i],
		}
	}
	for _, i := range inSite {
		report.Verdicts[i].InSite = true
	}
	for _, i := range verdict.Legitimate {
		report.Verdicts[i].Legitimate = true
	}
	// Identifier order makes the wire report independent of ingest
	// order, so two runs of the same campaign compare byte-for-byte.
	sort.Slice(report.Verdicts, func(a, b int) bool {
		return bytes.Compare(report.Verdicts[a].ID[:], report.Verdicts[b].ID[:]) < 0
	})
	return report, nil
}

// verifiedSite returns the TrustRank verdict and the report for a
// viewmap and site, given the viewmap's in-site node ids, the
// extraction's content epoch and generation and the minute's builder
// epoch (SiteViewmap). A cached entry for the same content epoch is
// reused outright, and its builder-epoch stamp raised to minuteEpoch
// — the verdict and report are deterministic functions of the graph
// content, so this holds across viewmap re-extraction and across a
// segment evict/reload of the minute. When the content advanced, the
// score vector the cached verification stopped at warm-starts the
// re-verification (same generation only, and only within the
// warmGrowthMax perturbation cutoff); any other verification starts
// from the seed vector. core.VerifySiteFrom certifies either start's
// verdict equal to VerifySite's, or falls back internally. The
// report's Legitimate slice is the cache's.
func (sys *System) verifiedSite(vm *core.Viewmap, inSite []int, epoch, gen, minuteEpoch uint64, site geo.Rect, minute int64) (*core.Verdict, InvestigationReport, error) {
	key := investigationKey{site: site, minute: minute}
	sys.verdictMu.Lock()
	e := sys.verdicts[key]
	if e != nil && e.epoch == epoch {
		sys.verdictSeq++
		e.used = sys.verdictSeq
		e.minuteEpoch = max(e.minuteEpoch, minuteEpoch)
		verdict, report := e.verdict, e.report
		sys.verdictMu.Unlock()
		return verdict, report, nil
	}
	var prev []float64
	if e != nil && e.gen == gen && vm.Len() <= e.report.Members*warmGrowthMax {
		prev = e.verdict.Scores
	}
	sys.verdictMu.Unlock()

	verdict, stats, err := vm.VerifySiteFrom(inSite, prev, core.TrustRankConfig{})
	if err != nil {
		return nil, InvestigationReport{}, err
	}
	sys.noteTrustRank(stats)
	report := InvestigationReport{
		Minute:     minute,
		Members:    vm.Len(),
		Edges:      vm.NumEdges(),
		InSite:     len(inSite),
		Legitimate: verdict.LegitimateIDs(vm),
	}
	sys.verdictMu.Lock()
	if sys.verdicts[key] == nil && len(sys.verdicts) >= verdictCacheMax {
		// Deterministic LRU: evict the entry with the oldest recency
		// stamp, so a burst of >64 concurrent investigations thrashes
		// predictably (oldest first) instead of by map-iteration order.
		var stalest investigationKey
		found := false
		for k, ent := range sys.verdicts {
			if !found || ent.used < sys.verdicts[stalest].used {
				stalest, found = k, true
			}
		}
		delete(sys.verdicts, stalest)
	}
	sys.verdictSeq++
	sys.verdicts[key] = &verdictEntry{
		epoch: epoch, gen: gen, minuteEpoch: minuteEpoch,
		verdict: verdict, report: report, used: sys.verdictSeq,
	}
	sys.verdictMu.Unlock()
	return verdict, report, nil
}

// noteTrustRank records one verification's convergence into the
// per-mode iteration histogram (viewmap_trustrank_iterations).
func (sys *System) noteTrustRank(stats core.VerifyStats) {
	mode := obs.TrustRankCold
	if stats.Warm {
		mode = obs.TrustRankWarm
	}
	sys.metrics.TrustRank(mode).Record(int64(stats.Iterations))
}

// TrustRankModeStats summarizes one verification mode's convergence
// behavior for GET /v1/stats and tests: how many verifications ran
// warm (resumed from a cached score vector) or cold, and the
// iteration-count quantiles they needed.
type TrustRankModeStats struct {
	Verifications uint64 `json:"verifications"`
	P50Iterations uint64 `json:"p50Iterations"`
	P99Iterations uint64 `json:"p99Iterations"`
}

// TrustRankStats reads the per-mode verification histograms, keyed by
// obs.TrustRankWarm / obs.TrustRankCold; modes with no verifications
// yet are absent.
func (sys *System) TrustRankStats() map[string]TrustRankModeStats {
	out := make(map[string]TrustRankModeStats)
	for mode, s := range sys.metrics.TrustRankSnapshots() {
		out[mode] = TrustRankModeStats{
			Verifications: s.Count,
			P50Iterations: s.Quantile(0.50),
			P99Iterations: s.Quantile(0.99),
		}
	}
	return out
}

// InvestigatePeriod runs Investigate for every unit-time window of an
// incident period ("the system builds a series of viewmaps each
// corresponding to a single unit-time during the incident period",
// Section 5.2.1), returning one report per minute. Minutes for which
// no viewmap exists to verify — nothing stored, or no trusted VP on
// record — are skipped with a nil report rather than failing the whole
// investigation; any other failure (an unreadable segment, a durability
// fault) aborts with the minute's error, because reporting a broken
// minute as a benign empty one would misstate what was verified.
func (sys *System) InvestigatePeriod(token string, site geo.Rect, firstMinute, lastMinute int64) ([]*InvestigationReport, error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, err
	}
	if lastMinute < firstMinute {
		return nil, fmt.Errorf("server: empty period %d..%d", firstMinute, lastMinute)
	}
	// The span in uint64 cannot overflow, and the loop counts offsets,
	// so a period ending at math.MaxInt64 ends too.
	span := uint64(lastMinute) - uint64(firstMinute)
	if span >= 60 {
		return nil, fmt.Errorf("server: period %d..%d exceeds the 60-minute cap", firstMinute, lastMinute)
	}
	reports := make([]*InvestigationReport, 0, span+1)
	for off := uint64(0); off <= span; off++ {
		m := firstMinute + int64(off)
		r, err := sys.Investigate(token, site, m)
		switch {
		case err == nil:
			reports = append(reports, r)
		case errors.Is(err, core.ErrNoTrusted) || errors.Is(err, ErrNoMinute):
			reports = append(reports, nil)
		default:
			return nil, fmt.Errorf("server: investigating minute %d: %w", m, err)
		}
	}
	return reports, nil
}

// Evidence exposes the evidence subsystem: solicitation board,
// anonymous delivery, payout, and blurred release.
func (sys *System) Evidence() *evidence.Service { return sys.evidence }

// SolicitationReport summarizes one OpenSolicitation call.
type SolicitationReport struct {
	// Minute is the investigated unit-time window.
	Minute int64
	// Members and InSite describe the verified viewmap.
	Members, InSite int
	// Legitimate is the TrustRank-verified identifier set posted to
	// the board.
	Legitimate []vd.VPID
	// Listed and NewlyListed count the solicitation's board entries
	// after this call and how many it added.
	Listed, NewlyListed int
	// Units is the per-video offer in cash units.
	Units int
}

// OpenSolicitation runs a verified investigation for (site, minute)
// and posts (or extends) the evidence solicitation for it: the
// TrustRank-legitimate VP identifiers are listed on the public board
// at the given per-video offer. Authority only. This is the evidence
// subsystem's entry point.
func (sys *System) OpenSolicitation(token string, site geo.Rect, minute int64, units int) (*SolicitationReport, error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, err
	}
	// investigateAt hands out its own copy of the Legitimate slice,
	// which the board may keep.
	report, _, err := sys.investigateAt(site, minute)
	if err != nil {
		return nil, err
	}
	res, err := sys.evidence.Open(site, minute, report.Legitimate, units)
	if err != nil {
		return nil, err
	}
	return &SolicitationReport{
		Minute:      minute,
		Members:     report.Members,
		InSite:      report.InSite,
		Legitimate:  report.Legitimate,
		Listed:      res.Listed,
		NewlyListed: res.NewlyListed,
		Units:       res.Units,
	}, nil
}

// ReleaseEvidence hands the investigator the redacted copy of an
// accepted delivery. Authority only; the unredacted bytes never leave
// the evidence subsystem.
func (sys *System) ReleaseEvidence(token string, id vd.VPID) (chunks [][]byte, frames, regions int, err error) {
	if err := sys.checkAuthority(token); err != nil {
		return nil, 0, 0, err
	}
	return sys.evidence.Release(id)
}
