package evidence

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"image"
	"math/big"
	"sync"
	"testing"

	"viewmap/internal/anon"
	"viewmap/internal/blur"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// testKey caches one RSA key; generation dominates test time.
var (
	keyOnce sync.Once
	testKey *rsa.PrivateKey
)

func testBank(t testing.TB) *reward.Bank {
	t.Helper()
	keyOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		testKey = k
	})
	return reward.NewBankFromKey(testKey)
}

// mapSource is a VPSource over a plain map.
type mapSource struct {
	mu sync.Mutex
	m  map[vd.VPID]*vp.Profile
}

func newMapSource() *mapSource { return &mapSource{m: make(map[vd.VPID]*vp.Profile)} }

func (s *mapSource) Get(id vd.VPID) (*vp.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[id]
	return p, ok
}

func (s *mapSource) put(p *vp.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[p.ID()] = p
}

// owner is one test fixture: a VP, its secret, and the recorded video.
type owner struct {
	p      *vp.Profile
	q      vd.Secret
	chunks [][]byte
}

// recordOwner drives a full minute of recording with a plate-bearing
// camera and returns the resulting VP, secret, and chunks.
func recordOwner(t testing.TB, minute int64, seed uint64) *owner {
	t.Helper()
	cam := &blur.CameraSource{W: 160, H: 90, Seed: seed,
		Plates: []blur.Plate{{Rect: image.Rect(55, 40, 105, 56)}}}
	return recordVideo(t, minute, seed, func(s int) []byte { return cam.SecondChunk(minute*60, s) })
}

// recordVideo records one minute whose second s carries frame(s).
func recordVideo(t testing.TB, minute int64, seed uint64, frame func(s int) []byte) *owner {
	t.Helper()
	q, err := vd.NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	r := vd.DeriveVPID(q)
	b, err := vp.NewBuilder(r, minute*60, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([][]byte, 0, 60)
	for s := 1; s <= 60; s++ {
		chunk := frame(s)
		if _, err := b.RecordSecond(geo.Pt(float64(s)*10, float64(seed%7)), chunk); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, chunk)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return &owner{p: p, q: q, chunks: chunks}
}

func newTestService(t testing.TB) (*Service, *mapSource) {
	t.Helper()
	svc, err := NewService(Config{FrameWidth: 160, FrameHeight: 90}, newMapSource(), testBank(t))
	if err != nil {
		t.Fatal(err)
	}
	return svc, svc.vps.(*mapSource)
}

// session draws a fresh single-use session id.
func session(t testing.TB, s *anon.Sessions) string {
	t.Helper()
	id, err := s.New()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestLifecycleSolicitDeliverPayoutRelease(t *testing.T) {
	svc, src := newTestService(t)
	sessions := anon.NewSessions()
	own := recordOwner(t, 0, 3)
	src.put(own.p)

	site := geo.NewRect(geo.Pt(0, -50), geo.Pt(700, 50))
	res, err := svc.Open(site, 0, []vd.VPID{own.p.ID()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewlyListed != 1 || res.Units != 3 {
		t.Fatalf("open result %+v", res)
	}

	// The board lists the identifier and the offer — nothing else.
	board := svc.Board()
	if len(board) != 1 || board[0].ID != own.p.ID() || board[0].Units != 3 {
		t.Fatalf("board = %+v", board)
	}

	// Deliver honestly.
	units, err := svc.Deliver(session(t, sessions), own.p.ID(), own.q, own.chunks)
	if err != nil {
		t.Fatal(err)
	}
	if units != 3 {
		t.Fatalf("entitled units = %d, want 3", units)
	}
	if got := svc.Board(); len(got) != 0 {
		t.Fatalf("delivered entry still on the board: %+v", got)
	}

	// A second delivery — even an honest replay — is refused.
	if _, err := svc.Deliver(session(t, sessions), own.p.ID(), own.q, own.chunks); !errors.Is(err, ErrAlreadyDelivered) {
		t.Fatalf("second delivery: got %v, want ErrAlreadyDelivered", err)
	}

	// Payout: withdraw all three units via blind signatures.
	pub := svc.bank.PublicKey()
	cash := withdraw(t, svc, sessions, own, 3)
	for _, c := range cash {
		if !c.Verify(pub) {
			t.Fatal("minted unit fails public verification")
		}
	}

	// Entitlement is exhausted: a fourth unit is refused.
	note, err := reward.NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Payout(session(t, sessions), own.p.ID(), own.q, []*big.Int{note.Blind(pub)}); err == nil {
		t.Fatal("over-withdrawal must be refused")
	}

	// Redeem once; double spend bounces.
	if err := svc.Redeem(cash[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Redeem(cash[0]); !errors.Is(err, reward.ErrDoubleSpend) {
		t.Fatalf("double spend: got %v, want ErrDoubleSpend", err)
	}

	// Release: the investigator gets a redacted copy; the stored copy
	// is untouched and still cascade-verifies.
	chunks, frames, regions, err := svc.Release(own.p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if frames != 60 || regions < 60 {
		t.Fatalf("release redacted %d frames, %d regions", frames, regions)
	}
	if len(chunks) != 60 {
		t.Fatalf("released %d chunks", len(chunks))
	}
	if err := vd.Replay(own.p.ID(), own.p.VDs, chunks); err == nil {
		t.Fatal("released copy must NOT cascade-verify (it was redacted)")
	}

	st := svc.StatsSnapshot()
	want := Stats{DeliveriesAccepted: 1, UnitsMinted: 3, UnitsRedeemed: 1, Released: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestDeliverRejectsSessionReuse(t *testing.T) {
	svc, src := newTestService(t)
	sessions := anon.NewSessions()
	own := recordOwner(t, 0, 4)
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 0, []vd.VPID{own.p.ID()}, 1); err != nil {
		t.Fatal(err)
	}
	sid := session(t, sessions)
	if _, err := svc.Deliver(sid, own.p.ID(), own.q, own.chunks); err != nil {
		t.Fatal(err)
	}
	// Replaying the session id on any endpoint is refused before
	// anything else is even looked at.
	if _, err := svc.Payout(sid, own.p.ID(), own.q, nil); !errors.Is(err, anon.ErrSessionReused) {
		t.Fatalf("session replay: got %v, want ErrSessionReused", err)
	}
	if _, err := svc.Deliver("", own.p.ID(), own.q, own.chunks); !errors.Is(err, anon.ErrSessionMissing) {
		t.Fatalf("missing session: got %v", err)
	}
}

func TestDeliverRejectsWrongSecretAndUnsolicited(t *testing.T) {
	svc, src := newTestService(t)
	sessions := anon.NewSessions()
	own := recordOwner(t, 0, 5)
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 0, []vd.VPID{own.p.ID()}, 2); err != nil {
		t.Fatal(err)
	}
	var wrongQ vd.Secret
	if _, err := svc.Deliver(session(t, sessions), own.p.ID(), wrongQ, own.chunks); !errors.Is(err, ErrBadOwnership) {
		t.Fatalf("wrong secret: got %v", err)
	}
	// A stored but unsolicited VP is refused.
	other := recordOwner(t, 0, 6)
	src.put(other.p)
	if _, err := svc.Deliver(session(t, sessions), other.p.ID(), other.q, other.chunks); !errors.Is(err, ErrNotSolicited) {
		t.Fatalf("unsolicited: got %v", err)
	}
	// An unknown VP is refused without leaking whether it exists.
	ghost := recordOwner(t, 0, 7)
	if _, err := svc.Deliver(session(t, sessions), ghost.p.ID(), ghost.q, ghost.chunks); !errors.Is(err, ErrNotSolicited) {
		t.Fatalf("unknown VP: got %v", err)
	}
	if st := svc.StatsSnapshot(); st.DeliveriesRejected != 0 {
		t.Fatalf("pre-verification refusals must not count as rejected deliveries: %+v", st)
	}
}

func TestOpenValidationAndMerge(t *testing.T) {
	svc, src := newTestService(t)
	own := recordOwner(t, 2, 8)
	src.put(own.p)
	site := geo.NewRect(geo.Pt(0, 0), geo.Pt(9, 9))
	if _, err := svc.Open(site, 2, nil, 3); err == nil {
		t.Fatal("empty id list must be rejected")
	}
	if _, err := svc.Open(site, 2, []vd.VPID{own.p.ID()}, 0); err == nil {
		t.Fatal("non-positive offer must be rejected")
	}
	if _, err := svc.Open(site, 2, []vd.VPID{own.p.ID()}, 3); err != nil {
		t.Fatal(err)
	}
	// Reopening after further ingest merges only the new identifiers.
	late := recordOwner(t, 2, 9)
	src.put(late.p)
	res, err := svc.Open(site, 2, []vd.VPID{own.p.ID(), late.p.ID()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewlyListed != 1 || res.Listed != 2 || res.Units != 3 {
		t.Fatalf("merge result %+v, want 1 new, 2 listed, original offer kept", res)
	}
}

func TestConcurrentDeliveriesExactlyOneWins(t *testing.T) {
	svc, src := newTestService(t)
	sessions := anon.NewSessions()
	own := recordOwner(t, 0, 10)
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 0, []vd.VPID{own.p.ID()}, 2); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		sid := session(t, sessions)
		go func() {
			_, err := svc.Deliver(sid, own.p.ID(), own.q, own.chunks)
			errs <- err
		}()
	}
	accepted, refused := 0, 0
	for w := 0; w < workers; w++ {
		switch err := <-errs; {
		case err == nil:
			accepted++
		case errors.Is(err, ErrAlreadyDelivered):
			refused++
		default:
			t.Errorf("unexpected delivery error: %v", err)
		}
	}
	if accepted != 1 || refused != workers-1 {
		t.Fatalf("accepted=%d refused=%d, want exactly one acceptance", accepted, refused)
	}
	if st := svc.StatsSnapshot(); st.DeliveriesAccepted != 1 {
		t.Fatalf("stats count %d acceptances", st.DeliveriesAccepted)
	}
}

func TestConcurrentLifecycleManyOwners(t *testing.T) {
	svc, src := newTestService(t)
	sessions := anon.NewSessions()
	const owners = 6
	site := geo.NewRect(geo.Pt(0, -50), geo.Pt(700, 50))
	all := make([]*owner, owners)
	byMinute := make(map[int64][]vd.VPID)
	for i := range all {
		all[i] = recordOwner(t, int64(i%2), uint64(20+i))
		src.put(all[i].p)
		m := all[i].p.Minute()
		byMinute[m] = append(byMinute[m], all[i].p.ID())
	}
	for m, ids := range byMinute {
		if _, err := svc.Open(site, m, ids, 2); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, own := range all {
		sid := session(t, sessions)
		paySid := session(t, sessions)
		wg.Add(1)
		go func(own *owner, sid, paySid string) {
			defer wg.Done()
			if _, err := svc.Deliver(sid, own.p.ID(), own.q, own.chunks); err != nil {
				t.Errorf("deliver: %v", err)
				return
			}
			pub := svc.bank.PublicKey()
			note, err := reward.NewNote(pub, rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			sigs, err := svc.Payout(paySid, own.p.ID(), own.q, []*big.Int{note.Blind(pub)})
			if err != nil {
				t.Errorf("payout: %v", err)
				return
			}
			cash, err := note.Unblind(pub, sigs[0])
			if err != nil {
				t.Error(err)
				return
			}
			if err := svc.Redeem(cash); err != nil {
				t.Errorf("redeem: %v", err)
			}
		}(own, sid, paySid)
	}
	wg.Wait()
	st := svc.StatsSnapshot()
	if st.DeliveriesAccepted != owners || st.UnitsMinted != owners || st.UnitsRedeemed != owners {
		t.Fatalf("stats after concurrent lifecycle: %+v", st)
	}
	if st.OpenSolicitations != 0 {
		t.Fatalf("every entry delivered, yet %d still open", st.OpenSolicitations)
	}
}

// withdraw runs the client-side blind-signature withdrawal of n units.
func withdraw(t testing.TB, svc *Service, sessions *anon.Sessions, own *owner, n int) []*reward.Cash {
	t.Helper()
	pub := svc.bank.PublicKey()
	notes := make([]*reward.Note, n)
	blinded := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		note, err := reward.NewNote(pub, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		notes[i] = note
		blinded[i] = note.Blind(pub)
	}
	sigs, err := svc.Payout(session(t, sessions), own.p.ID(), own.q, blinded)
	if err != nil {
		t.Fatal(err)
	}
	cash := make([]*reward.Cash, n)
	for i := range sigs {
		c, err := notes[i].Unblind(pub, sigs[i])
		if err != nil {
			t.Fatal(err)
		}
		cash[i] = c
	}
	return cash
}

func TestReleaseRequiresDelivery(t *testing.T) {
	svc, src := newTestService(t)
	own := recordOwner(t, 0, 30)
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 0, []vd.VPID{own.p.ID()}, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := svc.Release(own.p.ID()); !errors.Is(err, ErrNotDelivered) {
		t.Fatalf("release before delivery: got %v", err)
	}
	ghost := recordOwner(t, 0, 31)
	if _, _, _, err := svc.Release(ghost.p.ID()); !errors.Is(err, ErrNotSolicited) {
		t.Fatalf("release of unknown id: got %v", err)
	}
}

func TestDeliverRejectsOversizedVideo(t *testing.T) {
	svc, err := NewService(Config{MaxVideoBytes: 100}, newMapSource(), testBank(t))
	if err != nil {
		t.Fatal(err)
	}
	src := svc.vps.(*mapSource)
	sessions := anon.NewSessions()
	own := recordOwner(t, 0, 32)
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 0, []vd.VPID{own.p.ID()}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Deliver(session(t, sessions), own.p.ID(), own.q, own.chunks); err == nil {
		t.Fatal("oversized video must be refused")
	}
	if st := svc.StatsSnapshot(); st.DeliveriesRejected != 1 {
		t.Fatalf("rejection not counted: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	// Compile-time check that Stats is comparable (used by tests) and
	// printable.
	st := Stats{OpenSolicitations: 1}
	if fmt.Sprintf("%+v", st) == "" {
		t.Fatal("unprintable stats")
	}
}

// TestReleaseDeterministic releases a video whose frames carry two
// plates 4 px apart, closer than the blur radius, so the order the
// plates are blurred in shows in the output: two releases of one
// delivery must be byte-equal.
func TestReleaseDeterministic(t *testing.T) {
	svc, src := newTestService(t)
	own := recordVideo(t, 0, 5, func(s int) []byte {
		img, err := blur.Synthesize(160, 90, nil, uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []image.Rectangle{image.Rect(20, 30, 70, 46), image.Rect(74, 30, 124, 46)} {
			for y := r.Min.Y; y < r.Max.Y; y++ {
				for x := r.Min.X; x < r.Max.X; x++ {
					img.Pix[img.PixOffset(x, y)] = 235
				}
			}
		}
		return img.Pix
	})
	src.put(own.p)
	if _, err := svc.Open(geo.NewRect(geo.Pt(0, -50), geo.Pt(700, 50)), 0, []vd.VPID{own.p.ID()}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Deliver(session(t, anon.NewSessions()), own.p.ID(), own.q, own.chunks); err != nil {
		t.Fatal(err)
	}
	first, _, regions, err := svc.Release(own.p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if regions != 120 {
		t.Fatalf("release blurred %d regions, want 2 per frame", regions)
	}
	second, _, _, err := svc.Release(own.p.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("chunk %d differs between two releases", i)
		}
	}
}
