// Package evidence runs the sharing half of ViewMap end to end: the
// lifecycle that turns a verified viewmap into delivered, verified,
// paid-for, and privacy-scrubbed dashcam footage (Sections 5.1–5.3).
//
// The lifecycle has four stages, each mapping to one paper mechanism:
//
//  1. Solicitation — a verified investigation opens a solicitation
//     keyed by (site, minute), listing the VP identifiers that sit on
//     trusted viewmap lines and the cash units offered per video.
//     Only identifiers and prices are public; the site and minute
//     under investigation are never revealed to vehicles (§5.2.3).
//  2. Anonymous delivery — owners poll the board through the anonymous
//     channel and deliver under single-use session identifiers
//     (anon.Guard refuses any replayed session, the server-side half
//     of the "constantly change sessions" discipline, §5.1.2). The
//     owner proves ownership with the secret Q_u behind the VP
//     identifier R_u = H(Q_u), and the received bytes are validated by
//     replaying the VD hash cascade against the system-owned VP's
//     digests — any mutated, reordered, substituted, or truncated
//     segment fails (§5.2.3).
//  3. Untraceable payout — an accepted delivery entitles the owner to
//     the offered units, minted as Chaum blind signatures the system
//     cannot link back to the delivery (§5.3, Appendix A); the bank's
//     double-spend ledger is durable across restarts.
//  4. Privacy-preserving release — the investigator retrieves the
//     footage only after plate redaction (internal/blur) runs over the
//     stored copy; raw bytes never leave the subsystem.
//
// The subsystem deliberately has a narrow waist: it reads stored VPs
// through the VPSource interface, signs through a reward.Bank, and is
// otherwise self-contained — the server wires it to HTTP endpoints
// without the evidence state growing into server.System. Board state
// is sharded by unit-time window, mirroring the VP store's sharding,
// and snapshot-persisted alongside it.
package evidence

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"viewmap/internal/anon"
	"viewmap/internal/blur"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// VPSource is the subsystem's read-only view of the VP database.
// server.Store satisfies it.
type VPSource interface {
	// Get returns the stored profile with the given identifier.
	Get(id vd.VPID) (*vp.Profile, bool)
}

// Config parameterizes the evidence subsystem.
type Config struct {
	// FrameWidth and FrameHeight are the luminance-frame dimensions
	// redaction assumes for frame-shaped chunks; zero selects 160x90.
	FrameWidth, FrameHeight int
	// BlurParams tune the plate detector used at release; the zero
	// value selects blur.DefaultParams.
	BlurParams blur.Params
	// MaxVideoBytes bounds one delivered video; zero selects 64 MB
	// (a 50 MB minute plus headroom).
	MaxVideoBytes int64
}

func (c Config) withDefaults() Config {
	if c.FrameWidth == 0 {
		c.FrameWidth = 160
	}
	if c.FrameHeight == 0 {
		c.FrameHeight = 90
	}
	if c.MaxVideoBytes == 0 {
		c.MaxVideoBytes = 64 << 20
	}
	return c
}

// Journal receives board and bank mutations for write-ahead logging.
// The server's durable runtime implements it; each call must make the
// mutation durable before returning, and the service only acknowledges
// the mutation to the caller once it has. Replay-side re-application
// (ReplayDeliver, ReplayPayout) never journals.
type Journal interface {
	// JournalOpen records a solicitation posting (or merge).
	JournalOpen(site geo.Rect, minute int64, units int, ids []vd.VPID) error
	// JournalDeliver records an accepted delivery's bytes.
	JournalDeliver(id vd.VPID, chunks [][]byte) error
	// JournalPayout records the entitlement remaining after a payout
	// debit — an absolute value, so replay converges regardless of how
	// a snapshot cut interleaved with the debit.
	JournalPayout(id vd.VPID, remaining int) error
	// JournalRedeem records a burned cash unit.
	JournalRedeem(c *reward.Cash) error
}

// Service is the evidence subsystem: solicitation board, delivery
// validator, payout desk, and release gate. Safe for concurrent use.
type Service struct {
	cfg      Config
	vps      VPSource
	bank     *reward.Bank
	sessions *anon.Guard
	// journal, when set, write-ahead-logs every board/bank mutation.
	journal Journal

	// mu guards the shard map only; each shard carries its own lock.
	// Lock order: mu may be held while acquiring shard locks (the
	// persistence snapshot does, to freeze one atomic cut), never the
	// reverse.
	mu     sync.RWMutex
	shards map[int64]*boardShard

	deliveredOK  atomic.Int64
	deliveredBad atomic.Int64
	minted       atomic.Int64
	redeemed     atomic.Int64
	released     atomic.Int64
}

// boardShard holds one unit-time window's solicitations — the same
// sharding axis as the VP store, so board contention mirrors ingest
// contention and a hot minute never blocks the rest of the board.
type boardShard struct {
	mu sync.Mutex
	// solicitations keys by investigation site; one (site, minute)
	// pair is one solicitation.
	solicitations map[geo.Rect]*solicitation
	// byID indexes the shard's entries by VP identifier for delivery
	// and payout lookups. An identifier listed by two overlapping
	// sites resolves to its first listing.
	byID map[vd.VPID]*entry
}

// solicitation is one open 'request for video' posting.
type solicitation struct {
	site    geo.Rect
	minute  int64
	units   int
	entries []*entry
}

// entryState tracks one solicited VP through the lifecycle.
type entryState uint8

const (
	stateSolicited entryState = iota // listed, no accepted delivery yet
	stateDelivered                   // video accepted, payout open
)

// entry is the per-VP lifecycle record.
type entry struct {
	id        vd.VPID
	units     int // units offered for this video
	state     entryState
	remaining int      // blind signatures not yet issued
	chunks    [][]byte // the accepted copy (stateDelivered only)
}

// NewService creates the subsystem over a VP source and a bank.
func NewService(cfg Config, vps VPSource, bank *reward.Bank) (*Service, error) {
	if vps == nil || bank == nil {
		return nil, errors.New("evidence: need a VP source and a bank")
	}
	return &Service{
		cfg:      cfg.withDefaults(),
		vps:      vps,
		bank:     bank,
		sessions: anon.NewGuard(),
		shards:   make(map[int64]*boardShard),
	}, nil
}

// SetJournal attaches the write-ahead journal. Call before serving
// traffic; a nil journal (the default) logs nothing.
func (s *Service) SetJournal(j Journal) { s.journal = j }

// Errors of the lifecycle, mapped onto HTTP statuses by the server.
var (
	// ErrNotSolicited is returned for deliveries nobody asked for —
	// the automation shielding the pipeline from dump attacks.
	ErrNotSolicited = errors.New("evidence: video was not solicited")
	// ErrAlreadyDelivered is returned when a solicited video was
	// already accepted.
	ErrAlreadyDelivered = errors.New("evidence: video already delivered")
	// ErrBadOwnership is returned when the presented secret does not
	// hash to the VP identifier.
	ErrBadOwnership = errors.New("evidence: secret does not prove ownership")
	// ErrCascade is returned when the uploaded bytes fail the VD hash
	// cascade against the stored VP.
	ErrCascade = errors.New("evidence: video fails VD-cascade verification")
	// ErrNotDelivered is returned for payout or release requests
	// against an entry without an accepted delivery.
	ErrNotDelivered = errors.New("evidence: no accepted delivery")
)

// shard returns the board shard for a minute, or nil.
func (s *Service) shard(m int64) *boardShard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[m]
}

// ensureShard returns the board shard for a minute, creating it if
// needed.
func (s *Service) ensureShard(m int64) *boardShard {
	if sh := s.shard(m); sh != nil {
		return sh
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[m]
	if sh == nil {
		sh = &boardShard{
			solicitations: make(map[geo.Rect]*solicitation),
			byID:          make(map[vd.VPID]*entry),
		}
		s.shards[m] = sh
	}
	return sh
}

// OpenResult reports one Open call.
type OpenResult struct {
	// Listed is the number of identifiers now on the solicitation.
	Listed int
	// NewlyListed is how many of them this call added.
	NewlyListed int
	// Units is the per-video offer.
	Units int
}

// Open posts (or extends) the solicitation for a verified (site,
// minute) investigation: ids are the VP identifiers on trusted viewmap
// lines — the caller is expected to pass a TrustRank-verified set —
// and units is the cash offered per delivered video. Reopening the
// same site and minute after further ingest merges newly legitimate
// identifiers into the posting without disturbing entries that already
// accepted a delivery; the offer of an existing posting is not
// changed.
func (s *Service) Open(site geo.Rect, minute int64, ids []vd.VPID, units int) (*OpenResult, error) {
	if units <= 0 {
		return nil, fmt.Errorf("evidence: offer must be positive, got %d units", units)
	}
	if len(ids) == 0 {
		return nil, errors.New("evidence: nothing to solicit")
	}
	sh := s.ensureShard(minute)
	sh.mu.Lock()
	sol := sh.solicitations[site]
	if sol == nil {
		sol = &solicitation{site: site, minute: minute, units: units}
		sh.solicitations[site] = sol
	}
	res := &OpenResult{Units: sol.units}
	for _, id := range ids {
		if _, dup := sh.byID[id]; dup {
			continue
		}
		e := &entry{id: id, units: sol.units}
		sh.byID[id] = e
		sol.entries = append(sol.entries, e)
		res.NewlyListed++
	}
	res.Listed = len(sol.entries)
	sh.mu.Unlock()
	if s.journal != nil {
		// Replaying the posting re-merges the same identifier set — a
		// no-op over a snapshot that already contains it.
		if err := s.journal.JournalOpen(site, minute, units, ids); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Offer is one public board line: an identifier wanted and the units
// offered. Nothing else is revealed — not the site, not the minute
// under investigation.
type Offer struct {
	// ID is the solicited VP identifier.
	ID vd.VPID
	// Units is the cash offered for the video behind it.
	Units int
}

// Board lists the currently open offers (solicited, not yet
// delivered) across all shards, in deterministic identifier order.
// Vehicles poll this anonymously.
func (s *Service) Board() []Offer {
	s.mu.RLock()
	shards := make([]*boardShard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	var out []Offer
	for _, sh := range shards {
		sh.mu.Lock()
		for _, e := range sh.byID {
			if e.state == stateSolicited {
				out = append(out, Offer{ID: e.id, Units: e.units})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].ID[:]) < string(out[j].ID[:])
	})
	return out
}

// lookup resolves an identifier to its board entry via the stored
// profile's minute — the profile is needed for cascade verification
// anyway, so delivery never touches more than one shard.
func (s *Service) lookup(id vd.VPID) (*vp.Profile, *boardShard, *entry, error) {
	p, ok := s.vps.Get(id)
	if !ok {
		return nil, nil, nil, ErrNotSolicited
	}
	sh := s.shard(p.Minute())
	if sh == nil {
		return nil, nil, nil, ErrNotSolicited
	}
	sh.mu.Lock()
	e := sh.byID[id]
	sh.mu.Unlock()
	if e == nil {
		return nil, nil, nil, ErrNotSolicited
	}
	return p, sh, e, nil
}

// Deliver accepts one anonymous video delivery: session is the
// single-use session identifier of the exchange, q the ownership
// secret, chunks the per-second bytes. On success it returns the
// number of cash units the owner is now entitled to withdraw.
//
// The cascade replay runs outside the shard lock (it hashes the whole
// video); the entry state is re-checked before committing, so of two
// racing deliveries for the same identifier exactly one is accepted.
func (s *Service) Deliver(session string, id vd.VPID, q vd.Secret, chunks [][]byte) (int, error) {
	if err := s.sessions.Use(session); err != nil {
		return 0, err
	}
	if !id.Matches(q) {
		return 0, ErrBadOwnership
	}
	p, sh, e, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	sh.mu.Lock()
	if e.state != stateSolicited {
		sh.mu.Unlock()
		return 0, ErrAlreadyDelivered
	}
	sh.mu.Unlock()

	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	if total > s.cfg.MaxVideoBytes {
		s.deliveredBad.Add(1)
		return 0, fmt.Errorf("evidence: video of %d bytes exceeds the %d-byte cap", total, s.cfg.MaxVideoBytes)
	}
	if err := vd.Replay(id, p.VDs, chunks); err != nil {
		s.deliveredBad.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrCascade, err)
	}

	// Commit: keep our own copy so later tampering with the caller's
	// buffers cannot alter the accepted evidence.
	stored := make([][]byte, len(chunks))
	for i, c := range chunks {
		stored[i] = append([]byte(nil), c...)
	}
	sh.mu.Lock()
	if e.state != stateSolicited {
		sh.mu.Unlock()
		return 0, ErrAlreadyDelivered
	}
	e.state = stateDelivered
	e.chunks = stored
	e.remaining = e.units
	units := e.units
	sh.mu.Unlock()
	s.deliveredOK.Add(1)
	if s.journal != nil {
		// Ack only once the accepted bytes are on the log; a crash
		// before this line loses an unacknowledged delivery, which the
		// owner simply re-sends.
		if err := s.journal.JournalDeliver(id, stored); err != nil {
			return 0, err
		}
	}
	return units, nil
}

// ReplayDeliver re-applies an accepted delivery from the ingest log
// during recovery: no session, ownership, or cascade checks — the
// record's CRC vouches for the bytes the live path already verified —
// and no journaling. A delivery already present (restored from a
// snapshot) is left untouched.
func (s *Service) ReplayDeliver(id vd.VPID, chunks [][]byte) {
	_, sh, e, err := s.lookup(id)
	if err != nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.state != stateSolicited {
		return
	}
	e.state = stateDelivered
	e.chunks = chunks
	e.remaining = e.units
	s.deliveredOK.Add(1)
}

// Payout issues blind signatures against an accepted delivery's
// entitlement: the owner re-proves ownership under a fresh single-use
// session and presents blinded messages; the system signs without
// learning them (Appendix A). Units are debited before signing and
// refunded for any malformed blinded value, so the entitlement can
// never be over-issued.
func (s *Service) Payout(session string, id vd.VPID, q vd.Secret, blinded []*big.Int) ([]*big.Int, error) {
	if err := s.sessions.Use(session); err != nil {
		return nil, err
	}
	if !id.Matches(q) {
		return nil, ErrBadOwnership
	}
	_, sh, e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if len(blinded) == 0 {
		return nil, errors.New("evidence: nothing to sign")
	}
	sh.mu.Lock()
	if e.state != stateDelivered {
		sh.mu.Unlock()
		return nil, ErrNotDelivered
	}
	if e.remaining < len(blinded) {
		n := e.remaining
		sh.mu.Unlock()
		return nil, fmt.Errorf("evidence: %d units requested, %d remaining", len(blinded), n)
	}
	e.remaining -= len(blinded)
	after := e.remaining
	sh.mu.Unlock()

	out := make([]*big.Int, 0, len(blinded))
	for _, b := range blinded {
		sig, err := s.bank.SignBlinded(b)
		if err != nil {
			// The error return discards every signature computed so
			// far, so the whole debit is refunded — nothing issued,
			// nothing burned.
			sh.mu.Lock()
			e.remaining += len(blinded)
			sh.mu.Unlock()
			return nil, err
		}
		out = append(out, sig)
	}
	if s.journal != nil {
		// The absolute post-debit value makes replay order-independent
		// and idempotent: recovery takes the minimum it sees, which is
		// the lowest entitlement ever acknowledged.
		if err := s.journal.JournalPayout(id, after); err != nil {
			// The signatures are discarded with the error and the debit
			// was never logged, so refund it — same policy as a signing
			// failure: nothing issued, nothing burned. (A crash replay
			// restores the balance the same way.)
			sh.mu.Lock()
			e.remaining += len(blinded)
			sh.mu.Unlock()
			return nil, err
		}
	}
	s.minted.Add(int64(len(out)))
	return out, nil
}

// ReplayPayout re-applies a payout debit from the ingest log during
// recovery: the entry's entitlement is lowered to the logged post-
// debit value if it is not already at or below it. Entitlements only
// shrink on the live path, so taking the minimum converges to the
// acknowledged state no matter how a snapshot cut interleaved with
// the debits.
func (s *Service) ReplayPayout(id vd.VPID, remaining int) {
	_, sh, e, err := s.lookup(id)
	if err != nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.state != stateDelivered || remaining < 0 || e.remaining <= remaining {
		return
	}
	s.minted.Add(int64(e.remaining - remaining))
	e.remaining = remaining
}

// Redeem verifies and burns one unit of cash at the subsystem's
// redemption desk. A double spend — including one attempted across a
// persistence restart — is refused by the bank's durable ledger.
func (s *Service) Redeem(c *reward.Cash) error {
	if err := s.bank.Redeem(c); err != nil {
		return err
	}
	s.redeemed.Add(1)
	if s.journal != nil {
		// The burn must be durable before the goods change hands:
		// replaying it against an already-spent ledger is a no-op.
		if err := s.journal.JournalRedeem(c); err != nil {
			return err
		}
	}
	return nil
}

// Release returns the investigator-facing copy of an accepted
// delivery: plate redaction runs over the stored bytes and only the
// redacted copy leaves the subsystem. The stored evidence itself is
// never modified, so it can be re-verified against the VP cascade at
// any time.
func (s *Service) Release(id vd.VPID) (chunks [][]byte, frames, regions int, err error) {
	_, sh, e, err := s.lookup(id)
	if err != nil {
		return nil, 0, 0, err
	}
	sh.mu.Lock()
	if e.state != stateDelivered {
		sh.mu.Unlock()
		return nil, 0, 0, ErrNotDelivered
	}
	stored := e.chunks
	sh.mu.Unlock()

	out, frames, regions, err := blur.RedactChunks(stored, s.cfg.FrameWidth, s.cfg.FrameHeight, s.cfg.BlurParams)
	if err != nil {
		return nil, 0, 0, err
	}
	s.released.Add(1)
	return out, frames, regions, nil
}

// Stats are the subsystem's lifecycle counters, surfaced through
// GET /v1/stats.
type Stats struct {
	// OpenSolicitations counts board entries still awaiting delivery.
	OpenSolicitations int `json:"openSolicitations"`
	// DeliveriesAccepted and DeliveriesRejected count cascade-verified
	// and refused uploads (rejections count tampered bytes and
	// oversized videos; session or ownership failures never reach
	// verification).
	DeliveriesAccepted int `json:"deliveriesAccepted"`
	DeliveriesRejected int `json:"deliveriesRejected"`
	// UnitsMinted and UnitsRedeemed count blind signatures issued and
	// cash units burned.
	UnitsMinted   int `json:"unitsMinted"`
	UnitsRedeemed int `json:"unitsRedeemed"`
	// Released counts redacted videos handed to investigators.
	Released int `json:"released"`
}

// StatsSnapshot reads the current counters.
func (s *Service) StatsSnapshot() Stats {
	st := Stats{
		DeliveriesAccepted: int(s.deliveredOK.Load()),
		DeliveriesRejected: int(s.deliveredBad.Load()),
		UnitsMinted:        int(s.minted.Load()),
		UnitsRedeemed:      int(s.redeemed.Load()),
		Released:           int(s.released.Load()),
	}
	s.mu.RLock()
	shards := make([]*boardShard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	for _, sh := range shards {
		sh.mu.Lock()
		for _, e := range sh.byID {
			if e.state == stateSolicited {
				st.OpenSolicitations++
			}
		}
		sh.mu.Unlock()
	}
	return st
}
