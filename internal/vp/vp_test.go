package vp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewmap/internal/geo"
	"viewmap/internal/roadnet"
	"viewmap/internal/vd"
	"viewmap/internal/video"
)

const dsrcRange = 400

func fixedSecret(b byte) vd.Secret {
	var q vd.Secret
	for i := range q {
		q[i] = b
	}
	return q
}

// buildPair records two vehicles side by side for a minute, exchanging
// VDs every second, and returns their finalized profiles.
func buildPair(t testing.TB, gap float64) (*Profile, *Profile) {
	t.Helper()
	ra := vd.DeriveVPID(fixedSecret(1))
	rb := vd.DeriveVPID(fixedSecret(2))
	ba, err := NewBuilder(ra, 0, 0, dsrcRange)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewBuilder(rb, 0, 0, dsrcRange)
	if err != nil {
		t.Fatal(err)
	}
	srcA, _ := video.NewSyntheticSource("pair-A", 1000)
	srcB, _ := video.NewSyntheticSource("pair-B", 1000)
	for i := 1; i <= vd.SegmentSeconds; i++ {
		la := geo.Pt(float64(i)*10, 0)
		lb := geo.Pt(float64(i)*10+gap, 0)
		va, err := ba.RecordSecond(la, srcA.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		vb, err := bb.RecordSecond(lb, srcB.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		now := int64(i)
		if gap <= dsrcRange {
			if err := ba.AcceptNeighborVD(vb, now); err != nil {
				t.Fatalf("A accepting B's VD: %v", err)
			}
			if err := bb.AcceptNeighborVD(va, now); err != nil {
				t.Fatalf("B accepting A's VD: %v", err)
			}
		}
	}
	pa, err := ba.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

func TestStorageBytesMatchesPaper(t *testing.T) {
	if StorageBytes != 4840 {
		t.Errorf("StorageBytes = %d, want 4840 (Section 6.1 accounting with the 4096-bit filter)", StorageBytes)
	}
	// Less than 0.01% of a 50 MB video.
	if frac := float64(StorageBytes) / 50e6; frac > 0.0001 {
		t.Errorf("VP overhead fraction = %v, want < 0.01%%", frac)
	}
}

func TestBuilderFullMinuteProfile(t *testing.T) {
	pa, pb := buildPair(t, 50)
	for _, p := range []*Profile{pa, pb} {
		if !p.Complete() {
			t.Fatal("profile should be complete")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile should validate: %v", err)
		}
	}
	if pa.ID() == pb.ID() {
		t.Error("distinct vehicles must have distinct VP identifiers")
	}
	if pa.StartUnix() != 0 || pa.Minute() != 0 {
		t.Errorf("StartUnix/Minute = %d/%d, want 0/0", pa.StartUnix(), pa.Minute())
	}
}

func TestMutualNeighborsLinked(t *testing.T) {
	pa, pb := buildPair(t, 50)
	if !MutualNeighbors(pa, pb, dsrcRange) {
		t.Error("co-travelling vehicles should be mutual neighbors")
	}
	if !MutualNeighbors(pb, pa, dsrcRange) {
		t.Error("mutual neighborship must be symmetric")
	}
}

func TestMutualNeighborsNotLinkedWhenSilent(t *testing.T) {
	// Vehicles never exchanged VDs (gap beyond range): no viewlink even
	// if we later test with a generous range.
	pa, pb := buildPair(t, 5000)
	if MutualNeighbors(pa, pb, 1e9) {
		t.Error("vehicles that never exchanged VDs must not link")
	}
}

func TestMutualNeighborsRequiresProximity(t *testing.T) {
	// Exchange happened (gap 300 <= range) but the claimed check range
	// is tighter than their separation: proximity fails.
	pa, pb := buildPair(t, 300)
	if MutualNeighbors(pa, pb, 100) {
		t.Error("proximity check should reject distant trajectories")
	}
}

func TestMutualNeighborsOneWayRejected(t *testing.T) {
	// B hears A, but A never hears B: one-way linkage must not count.
	ra := vd.DeriveVPID(fixedSecret(3))
	rb := vd.DeriveVPID(fixedSecret(4))
	ba, _ := NewBuilder(ra, 0, 0, dsrcRange)
	bb, _ := NewBuilder(rb, 0, 0, dsrcRange)
	srcA, _ := video.NewSyntheticSource("ow-A", 100)
	srcB, _ := video.NewSyntheticSource("ow-B", 100)
	for i := 1; i <= vd.SegmentSeconds; i++ {
		l := geo.Pt(float64(i), 0)
		va, _ := ba.RecordSecond(l, srcA.SecondChunk(0, i))
		if _, err := bb.RecordSecond(l.Add(geo.Pt(20, 0)), srcB.SecondChunk(0, i)); err != nil {
			t.Fatal(err)
		}
		if err := bb.AcceptNeighborVD(va, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pa, _ := ba.Finalize()
	pb, _ := bb.Finalize()
	if MutualNeighbors(pa, pb, dsrcRange) {
		t.Error("one-way VD reception must not create a viewlink")
	}
}

func TestMutualNeighborsDifferentMinutes(t *testing.T) {
	pa, _ := buildPair(t, 50)
	rb := vd.DeriveVPID(fixedSecret(9))
	bb, _ := NewBuilder(rb, 60, 0, dsrcRange)
	src, _ := video.NewSyntheticSource("min2", 100)
	for i := 1; i <= vd.SegmentSeconds; i++ {
		if _, err := bb.RecordSecond(geo.Pt(float64(i)*10, 0), src.SecondChunk(60, i)); err != nil {
			t.Fatal(err)
		}
	}
	pb, _ := bb.Finalize()
	if MutualNeighbors(pa, pb, dsrcRange) {
		t.Error("profiles from different minutes must not link")
	}
}

func TestAcceptNeighborVDValidation(t *testing.T) {
	r := vd.DeriveVPID(fixedSecret(5))
	b, _ := NewBuilder(r, 0, 0, dsrcRange)
	nb := vd.VD{T: 1, L: geo.Pt(10, 0), Seq: 1, R: vd.DeriveVPID(fixedSecret(6))}
	if err := b.AcceptNeighborVD(nb, 1); err == nil {
		t.Error("accepting before first recorded second should fail")
	}
	src, _ := video.NewSyntheticSource("val", 100)
	if _, err := b.RecordSecond(geo.Pt(0, 0), src.SecondChunk(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Stale time.
	stale := vd.VD{T: -30, L: geo.Pt(10, 0), Seq: 1, R: nb.R}
	if err := b.AcceptNeighborVD(stale, 1); err == nil {
		t.Error("stale VD should be rejected")
	}
	// Too far away.
	far := vd.VD{T: 1, L: geo.Pt(10000, 0), Seq: 1, R: nb.R}
	if err := b.AcceptNeighborVD(far, 1); err == nil {
		t.Error("out-of-range VD should be rejected")
	}
	if err := b.AcceptNeighborVD(nb, 1); err != nil {
		t.Errorf("valid VD should be accepted: %v", err)
	}
	if b.NeighborCount() != 1 {
		t.Errorf("NeighborCount = %d, want 1", b.NeighborCount())
	}
}

func TestNeighborCap(t *testing.T) {
	r := vd.DeriveVPID(fixedSecret(7))
	b, _ := NewBuilder(r, 0, 3, dsrcRange)
	src, _ := video.NewSyntheticSource("cap", 100)
	if _, err := b.RecordSecond(geo.Pt(0, 0), src.SecondChunk(0, 1)); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		nb := vd.VD{T: 1, L: geo.Pt(10, 0), Seq: 1, R: vd.DeriveVPID(fixedSecret(100 + i))}
		err := b.AcceptNeighborVD(nb, 1)
		if i < 3 && err != nil {
			t.Errorf("neighbor %d should be accepted: %v", i, err)
		}
		if i >= 3 && err != ErrNeighborCapReached {
			t.Errorf("neighbor %d should hit the cap, got %v", i, err)
		}
	}
	// Known neighbors still update their last VD past the cap.
	known := vd.VD{T: 2, L: geo.Pt(12, 0), Seq: 2, R: vd.DeriveVPID(fixedSecret(100))}
	if _, err := b.RecordSecond(geo.Pt(1, 0), src.SecondChunk(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.AcceptNeighborVD(known, 2); err != nil {
		t.Errorf("known neighbor update should succeed past cap: %v", err)
	}
}

func TestFinalizeIncomplete(t *testing.T) {
	r := vd.DeriveVPID(fixedSecret(8))
	b, _ := NewBuilder(r, 0, 0, dsrcRange)
	if _, err := b.Finalize(); err == nil {
		t.Error("finalizing an incomplete segment should fail")
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	pa, _ := buildPair(t, 50)

	broken := &Profile{VDs: append([]vd.VD(nil), pa.VDs...), Neighbors: pa.Neighbors}
	broken.VDs[5].Seq = 99
	if err := broken.Validate(); err == nil {
		t.Error("sequence tampering should fail validation")
	}

	broken2 := &Profile{VDs: append([]vd.VD(nil), pa.VDs...), Neighbors: pa.Neighbors}
	broken2.VDs[5].R = vd.DeriveVPID(fixedSecret(99))
	if err := broken2.Validate(); err == nil {
		t.Error("identifier change should fail validation")
	}

	broken3 := &Profile{VDs: append([]vd.VD(nil), pa.VDs...), Neighbors: pa.Neighbors}
	broken3.VDs[6].F = 1 // shrinking size
	if err := broken3.Validate(); err == nil {
		t.Error("shrinking file size should fail validation")
	}

	broken4 := &Profile{VDs: pa.VDs[:30], Neighbors: pa.Neighbors}
	if err := broken4.Validate(); err == nil {
		t.Error("incomplete profile should fail validation")
	}
}

func TestValidateRejectsPoisonedFilter(t *testing.T) {
	pa, _ := buildPair(t, 50)
	pa.Neighbors.SetAll()
	if err := pa.Validate(); err == nil {
		t.Error("all-ones filter must be rejected as poisoning")
	}
}

func TestPlausibleTrajectory(t *testing.T) {
	pa, _ := buildPair(t, 50)
	if !pa.PlausibleTrajectory() {
		t.Error("10 m/s trajectory should be plausible")
	}
	tele := &Profile{VDs: append([]vd.VD(nil), pa.VDs...), Neighbors: pa.Neighbors}
	tele.VDs[30].L = geo.Pt(1e6, 1e6)
	if tele.PlausibleTrajectory() {
		t.Error("teleporting trajectory should be implausible")
	}
}

func TestEntersArea(t *testing.T) {
	pa, _ := buildPair(t, 50) // travels x=10..600 at y=0
	if !pa.EntersArea(geo.NewRect(geo.Pt(200, -50), geo.Pt(300, 50))) {
		t.Error("profile should enter area on its path")
	}
	if pa.EntersArea(geo.NewRect(geo.Pt(5000, 5000), geo.Pt(6000, 6000))) {
		t.Error("profile should not enter a far-away area")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	pa, _ := buildPair(t, 50)
	enc := pa.Marshal()
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != pa.ID() {
		t.Error("round trip changed VP identifier")
	}
	if len(back.VDs) != len(pa.VDs) {
		t.Fatalf("round trip changed VD count")
	}
	for i := range pa.VDs {
		if back.VDs[i] != pa.VDs[i] {
			t.Fatalf("round trip changed VD %d", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped profile should validate: %v", err)
	}
	// The filters must answer queries identically.
	for i := range pa.VDs {
		key := pa.VDs[i].Key()
		if back.Neighbors.Test(key) != pa.Neighbors.Test(key) {
			t.Fatal("round trip changed filter behaviour")
		}
	}
}

// TestAppendMarshalWireLayout pins the wire record against the layout
// assembled by hand from its parts (header, VD.Encode per digest,
// filter bytes), and checks that WireLen predicts its length and that
// AppendMarshal into a buffer with room allocates nothing.
func TestAppendMarshalWireLayout(t *testing.T) {
	pa, pb := buildPair(t, 50)
	partial := &Profile{VDs: pb.VDs[:7]}
	for _, p := range []*Profile{pa, pb, partial} {
		want := binary.BigEndian.AppendUint32(nil, uint32(len(p.VDs)))
		filter := make([]byte, FilterBits/8)
		k := 0
		if p.Neighbors != nil {
			filter, k = p.Neighbors.Bytes(), p.Neighbors.K()
		}
		want = append(want, byte(k), 0)
		for i := range p.VDs {
			enc := p.VDs[i].Encode()
			want = append(want, enc[:]...)
		}
		want = append(want, filter...)

		if got := p.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("%d-digest profile: Marshal diverges from the documented layout", len(p.VDs))
		}
		if p.WireLen() != len(want) {
			t.Fatalf("%d-digest profile: WireLen %d, record is %d bytes", len(p.VDs), p.WireLen(), len(want))
		}
		prefix := []byte("prefix")
		if got := p.AppendMarshal(prefix); !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("%d-digest profile: AppendMarshal does not extend its prefix with the record", len(p.VDs))
		}
		buf := make([]byte, 0, p.WireLen())
		if allocs := testing.AllocsPerRun(10, func() { buf = p.AppendMarshal(buf[:0]) }); allocs != 0 {
			t.Fatalf("%d-digest profile: AppendMarshal into a sized buffer allocates %.0f times", len(p.VDs), allocs)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Error("truncated header should fail")
	}
	pa, _ := buildPair(t, 50)
	enc := pa.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-1]); err == nil {
		t.Error("truncated body should fail")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0xFF // absurd VD count
	if _, err := Unmarshal(bad); err == nil {
		t.Error("absurd VD count should fail")
	}
}

func TestSelectGuardTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]vd.VPID, 20)
	for i := range ids {
		ids[i] = vd.DeriveVPID(fixedSecret(byte(i)))
	}
	got := SelectGuardTargets(ids, 0.1, rng)
	if len(got) != 2 {
		t.Errorf("alpha=0.1 of 20 should select ceil(2)=2, got %d", len(got))
	}
	if got := SelectGuardTargets(ids, 0.05, rng); len(got) != 1 {
		t.Errorf("ceil(0.05*20)=1, got %d", len(got))
	}
	if got := SelectGuardTargets(ids, 2.0, rng); len(got) != 20 {
		t.Errorf("alpha>1 clamps to all, got %d", len(got))
	}
	if got := SelectGuardTargets(nil, 0.1, rng); got != nil {
		t.Error("no neighbors yields nil")
	}
	if got := SelectGuardTargets(ids, 0, rng); got != nil {
		t.Error("alpha=0 yields nil")
	}
}

func TestUncoveredProbabilityPaperTarget(t *testing.T) {
	// Section 6.2.2: alpha = 0.1 pushes P_t below 0.01 within 5 minutes
	// (for reasonable neighbor counts; the paper's Fig. 9 discussion
	// uses m in the tens).
	if p := UncoveredProbability(0.1, 50, 5); p >= 0.01 {
		t.Errorf("P_5 at alpha=0.1, m=50 = %v, want < 0.01", p)
	}
	// Monotone: more minutes => lower probability.
	p3 := UncoveredProbability(0.1, 40, 3)
	p6 := UncoveredProbability(0.1, 40, 6)
	if p6 >= p3 {
		t.Errorf("P_t should fall with time: P_3=%v P_6=%v", p3, p6)
	}
	// Degenerate inputs.
	if UncoveredProbability(0.1, 0, 5) != 1 {
		t.Error("no neighbors: never covered")
	}
	if UncoveredProbability(0.1, 40, 0) != 1 {
		t.Error("no time: never covered")
	}
}

func TestGuardVPCount(t *testing.T) {
	// Fig. 9: VPs created per minute = 1 actual + ceil(alpha*m) guards.
	rng := rand.New(rand.NewSource(2))
	ids := make([]vd.VPID, 100)
	for i := range ids {
		ids[i] = vd.DeriveVPID(fixedSecret(byte(i)))
	}
	for _, tc := range []struct {
		alpha float64
		want  int
	}{{0.1, 10}, {0.5, 50}, {0.9, 90}} {
		if got := len(SelectGuardTargets(ids, tc.alpha, rng)); got != tc.want {
			t.Errorf("alpha=%v selects %d guards, want %d", tc.alpha, got, tc.want)
		}
	}
}

func guardTestCity(t testing.TB) *roadnet.City {
	t.Helper()
	c, err := roadnet.BuildGrid(roadnet.GridConfig{Cols: 8, Rows: 8, Spacing: 150})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildGuardTrajectory(t *testing.T) {
	city := guardTestCity(t)
	rng := rand.New(rand.NewSource(3))
	from := geo.Pt(0, 0)
	to := geo.Pt(450, 300)
	g, err := BuildGuard(city.Net, from, to, 120, GuardConfig{JitterM: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Complete() {
		t.Fatal("guard profile must span the full minute")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("guard must pass structural validation (indistinguishability): %v", err)
	}
	if d := g.InitialLocation().Dist(from); d > 20 {
		t.Errorf("guard starts %v m from the neighbor's initial location", d)
	}
	if d := g.FinalLocation().Dist(to); d > 20 {
		t.Errorf("guard ends %v m from the vehicle's final position (auto speed): %v", d, g.FinalLocation())
	}
	if !g.PlausibleTrajectory() {
		t.Error("guard trajectory should be drivable")
	}
	if g.StartUnix() != 120 {
		t.Errorf("guard StartUnix = %d, want 120", g.StartUnix())
	}
}

func TestBuildGuardValidation(t *testing.T) {
	city := guardTestCity(t)
	rng := rand.New(rand.NewSource(4))
	if _, err := BuildGuard(city.Net, geo.Pt(0, 0), geo.Pt(100, 0), 61, GuardConfig{}, rng); err == nil {
		t.Error("misaligned start should fail")
	}
}

func TestGuardLinksWithActual(t *testing.T) {
	city := guardTestCity(t)
	rng := rand.New(rand.NewSource(5))
	pa, _ := buildPair(t, 50) // actual VP: x=10..600, y=0, minute 0
	g, err := BuildGuard(city.Net, geo.Pt(0, 300), pa.FinalLocation(), 0, GuardConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if MutualNeighbors(pa, g, dsrcRange) {
		t.Fatal("guard must not link before LinkMutually")
	}
	if err := LinkMutually(pa, g); err != nil {
		t.Fatal(err)
	}
	if !MutualNeighbors(pa, g, dsrcRange) {
		t.Error("linked guard should be a mutual neighbor of the actual VP")
	}
}

func TestLinkMutuallyValidation(t *testing.T) {
	pa, _ := buildPair(t, 50)
	if err := LinkMutually(pa, &Profile{}); err == nil {
		t.Error("linking an empty profile should fail")
	}
}

// Property: marshalled profiles always round-trip.
func TestMarshalRoundTripProperty(t *testing.T) {
	pa, pb := buildPair(t, 50)
	profiles := []*Profile{pa, pb}
	f := func(pick bool) bool {
		p := profiles[0]
		if pick {
			p = profiles[1]
		}
		back, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return back.ID() == p.ID() && len(back.VDs) == len(p.VDs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: UncoveredProbability is a probability and is monotone
// non-increasing in alpha.
func TestUncoveredProbabilityProperty(t *testing.T) {
	f := func(a8 uint8, m8 uint8, t8 uint8) bool {
		alpha := 0.01 + float64(a8%90)/100
		m := 1 + int(m8%200)
		tm := 1 + int(t8%30)
		p := UncoveredProbability(alpha, m, tm)
		if p < 0 || p > 1 || math.IsNaN(p) {
			return false
		}
		return UncoveredProbability(alpha+0.05, m, tm) <= p+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMutualNeighbors(b *testing.B) {
	pa, pb := buildPair(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MutualNeighbors(pa, pb, dsrcRange)
	}
}

func BenchmarkProfileMarshal(b *testing.B) {
	pa, _ := buildPair(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.Marshal()
	}
}

func TestSingleBeaconContactNotLinkable(t *testing.T) {
	// The two-hit rule: a contact that delivered exactly one beacon in
	// each direction stores a single element VD per side, which cannot
	// produce the two distinct digest hits MutualNeighbors requires.
	// This is the deliberate trade documented on MutualNeighbors.
	ra := vd.DeriveVPID(fixedSecret(31))
	rb := vd.DeriveVPID(fixedSecret(32))
	ba, _ := NewBuilder(ra, 0, 0, dsrcRange)
	bb, _ := NewBuilder(rb, 0, 0, dsrcRange)
	srcA, _ := video.NewSyntheticSource("sb-A", 100)
	srcB, _ := video.NewSyntheticSource("sb-B", 100)
	for i := 1; i <= vd.SegmentSeconds; i++ {
		l := geo.Pt(float64(i)*10, 0)
		va, err := ba.RecordSecond(l, srcA.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		vb, err := bb.RecordSecond(l.Add(geo.Pt(30, 0)), srcB.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 30 { // exactly one beacon each way, ever
			if err := ba.AcceptNeighborVD(vb, int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := bb.AcceptNeighborVD(va, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pa, _ := ba.Finalize()
	pb, _ := bb.Finalize()
	if MutualNeighbors(pa, pb, dsrcRange) {
		t.Error("a single-beacon contact must not create a viewlink")
	}
}

func TestTwoBeaconContactLinkable(t *testing.T) {
	// Two beacons per direction are sufficient: first and last stored
	// digests both hit.
	ra := vd.DeriveVPID(fixedSecret(33))
	rb := vd.DeriveVPID(fixedSecret(34))
	ba, _ := NewBuilder(ra, 0, 0, dsrcRange)
	bb, _ := NewBuilder(rb, 0, 0, dsrcRange)
	srcA, _ := video.NewSyntheticSource("tb-A", 100)
	srcB, _ := video.NewSyntheticSource("tb-B", 100)
	for i := 1; i <= vd.SegmentSeconds; i++ {
		l := geo.Pt(float64(i)*10, 0)
		va, err := ba.RecordSecond(l, srcA.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		vb, err := bb.RecordSecond(l.Add(geo.Pt(30, 0)), srcB.SecondChunk(0, i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 20 || i == 40 {
			if err := ba.AcceptNeighborVD(vb, int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := bb.AcceptNeighborVD(va, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pa, _ := ba.Finalize()
	pb, _ := bb.Finalize()
	if !MutualNeighbors(pa, pb, dsrcRange) {
		t.Error("a two-beacon contact should create a viewlink")
	}
}
