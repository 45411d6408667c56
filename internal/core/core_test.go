package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// stationary returns a 60-sample parked track at p.
func stationary(p geo.Point) []geo.Point {
	out := make([]geo.Point, vd.SegmentSeconds)
	for i := range out {
		out[i] = p
	}
	return out
}

// chainViewmap builds a line of n profiles spaced gap metres apart,
// linked consecutively, with node 0 trusted, and returns the viewmap.
func chainViewmap(t testing.TB, n int, gap float64) *Viewmap {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	profiles := make([]*vp.Profile, n)
	for i := 0; i < n; i++ {
		p, err := FabricateProfile(stationary(geo.Pt(float64(i)*gap, 0)), 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
	}
	for i := 0; i+1 < n; i++ {
		if err := vp.LinkMutually(profiles[i], profiles[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	profiles[0].Trusted = true
	vm, err := Build(profiles, BuildConfig{
		Site:      geo.RectAround(geo.Pt(float64(n-1)*gap, 0), 50),
		Minute:    0,
		DSRCRange: gap + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestBuildChain(t *testing.T) {
	vm := chainViewmap(t, 5, 100)
	if vm.Len() != 5 {
		t.Fatalf("viewmap has %d members, want 5", vm.Len())
	}
	if vm.NumEdges() != 4 {
		t.Errorf("viewmap has %d edges, want 4", vm.NumEdges())
	}
	if len(vm.Trusted) != 1 || vm.Trusted[0] != 0 {
		t.Errorf("Trusted = %v, want [0]", vm.Trusted)
	}
	hops := vm.HopsFromTrusted()
	for i, h := range hops {
		if h != i {
			t.Errorf("hops[%d] = %d, want %d", i, h, i)
		}
	}
}

func TestBuildRequiresTrusted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := FabricateProfile(stationary(geo.Pt(0, 0)), 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build([]*vp.Profile{p}, BuildConfig{Site: geo.RectAround(geo.Pt(0, 0), 10), Minute: 0}); err == nil {
		t.Error("Build without a trusted VP should fail")
	}
}

func TestBuildFiltersByMinute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trusted, _ := FabricateProfile(stationary(geo.Pt(0, 0)), 0, 0, rng)
	trusted.Trusted = true
	wrongMinute, _ := FabricateProfile(stationary(geo.Pt(10, 0)), 1, 0, rng)
	vm, err := Build([]*vp.Profile{trusted, wrongMinute}, BuildConfig{
		Site: geo.RectAround(geo.Pt(0, 0), 50), Minute: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != 1 {
		t.Errorf("viewmap should only hold minute-0 profiles, got %d", vm.Len())
	}
}

func TestBuildCoverageEncompassesSiteAndTrusted(t *testing.T) {
	// Trusted VP 3 km from the site (the paper's Fig. 6 setting).
	rng := rand.New(rand.NewSource(3))
	trusted, _ := FabricateProfile(stationary(geo.Pt(3000, 0)), 0, 0, rng)
	trusted.Trusted = true
	nearSite, _ := FabricateProfile(stationary(geo.Pt(0, 0)), 0, 0, rng)
	farAway, _ := FabricateProfile(stationary(geo.Pt(100000, 0)), 0, 0, rng)
	vm, err := Build([]*vp.Profile{trusted, nearSite, farAway}, BuildConfig{
		Site: geo.RectAround(geo.Pt(0, 0), 100), Minute: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != 2 {
		t.Errorf("viewmap should include site VP and trusted VP, exclude far VP: %d members", vm.Len())
	}
	if !vm.Coverage.Contains(geo.Pt(3000, 0)) || !vm.Coverage.Contains(geo.Pt(0, 0)) {
		t.Error("coverage must encompass both the site and the trusted VP")
	}
}

func TestBuildDropsImplausibleWhenRequired(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trusted, _ := FabricateProfile(stationary(geo.Pt(0, 0)), 0, 0, rng)
	trusted.Trusted = true
	teleport := stationary(geo.Pt(10, 0))
	teleport[30] = geo.Pt(50000, 0)
	cheat, _ := FabricateProfile(teleport, 0, 0, rng)
	vm, err := Build([]*vp.Profile{trusted, cheat}, BuildConfig{
		Site: geo.RectAround(geo.Pt(0, 0), 100), Minute: 0, RequirePlausible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != 1 {
		t.Errorf("implausible trajectory should be dropped, got %d members", vm.Len())
	}
}

func TestTrustRankChainDecay(t *testing.T) {
	vm := chainViewmap(t, 6, 100)
	scores, err := vm.TrustRank(TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Trust decays along the chain away from the trusted node 0. The
	// trusted node's immediate neighbor may edge slightly ahead of it
	// (the degree-1 endpoint returns all its flow), so assert decay
	// from node 1 onward and dominance of the head over the tail.
	if scores[0] <= scores[2] {
		t.Errorf("trusted node should outrank distant nodes: %v", scores)
	}
	for i := 1; i+1 < 4; i++ {
		if scores[i] <= scores[i+1] {
			t.Errorf("scores should decay along the chain: %v", scores)
		}
	}
	// All scores positive on a connected graph.
	for i, s := range scores {
		if s <= 0 {
			t.Errorf("score[%d] = %v, want positive", i, s)
		}
	}
}

func TestTrustRankScoresSumToAtMostOne(t *testing.T) {
	vm := chainViewmap(t, 8, 100)
	scores, err := vm.TrustRank(TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if sum > 1+1e-6 {
		t.Errorf("score sum = %v, want <= 1", sum)
	}
	if sum < 0.5 {
		t.Errorf("score sum = %v suspiciously low for a connected graph", sum)
	}
}

func TestTrustRankLemma1Bound(t *testing.T) {
	// Sum of scores at distance >= L from the trusted VP is at most
	// delta^L.
	vm := chainViewmap(t, 10, 100)
	scores, err := vm.TrustRank(TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hops := vm.HopsFromTrusted()
	for L := 1; L <= 5; L++ {
		var far []int
		for i, h := range hops {
			if h >= L || h == -1 {
				far = append(far, i)
			}
		}
		if got, bound := SumScores(scores, far), Lemma1Bound(DefaultDamping, L); got > bound+1e-9 {
			t.Errorf("Lemma 1 violated at L=%d: sum %v > delta^L %v", L, got, bound)
		}
	}
}

func TestTrustRankValidation(t *testing.T) {
	vm := chainViewmap(t, 3, 100)
	if _, err := vm.TrustRank(TrustRankConfig{Damping: 1.5}); err == nil {
		t.Error("damping outside (0,1) should fail")
	}
	empty := &Viewmap{}
	if _, err := empty.TrustRank(TrustRankConfig{}); err == nil {
		t.Error("empty viewmap should fail")
	}
	noTrust := chainViewmap(t, 3, 100)
	noTrust.Trusted = nil
	if _, err := noTrust.TrustRank(TrustRankConfig{}); err == nil {
		t.Error("viewmap without trusted VP should fail")
	}
}

// twoLayerViewmap models the Fig. 7 attack: a legitimate single layer
// containing the trusted VP, plus a fake layer hanging off one
// attacker-owned legitimate VP, overlapping the site.
func twoLayerViewmap(t testing.TB, legit, fake int) (*Viewmap, map[vd.VPID]bool, geo.Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	site := geo.RectAround(geo.Pt(900, 0), 120)
	var profiles []*vp.Profile
	isFake := make(map[vd.VPID]bool)

	// Legitimate chain from the trusted VP through the site.
	for i := 0; i < legit; i++ {
		p, err := FabricateProfile(stationary(geo.Pt(float64(i)*150, 0)), 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	for i := 0; i+1 < legit; i++ {
		vp.LinkMutually(profiles[i], profiles[i+1])
	}
	profiles[0].Trusted = true

	// The attacker owns one legitimate VP (the last chain node, inside
	// coverage) and hangs fake VPs off it, all claiming the site.
	attackerOwn := profiles[legit-1]
	for i := 0; i < fake; i++ {
		p, err := FabricateProfile(stationary(geo.Pt(900+float64(i%10)*10, 30)), 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		isFake[p.ID()] = true
		vp.LinkMutually(attackerOwn, p)
		// Fakes also link among themselves to share trust.
		if i > 0 {
			vp.LinkMutually(profiles[len(profiles)-1], p)
		}
		profiles = append(profiles, p)
	}
	vm, err := Build(profiles, BuildConfig{Site: site, Minute: 0, DSRCRange: 160})
	if err != nil {
		t.Fatal(err)
	}
	return vm, isFake, site
}

func TestVerifySiteRejectsFakeLayer(t *testing.T) {
	vm, isFake, site := twoLayerViewmap(t, 8, 20)
	verdict, err := vm.VerifySite(vm.InSite(site), TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Anchor < 0 {
		t.Fatal("site should contain VPs")
	}
	if isFake[vm.Profiles[verdict.Anchor].ID()] {
		t.Error("anchor should be a legitimate VP")
	}
	for _, i := range verdict.Legitimate {
		if isFake[vm.Profiles[i].ID()] {
			t.Errorf("fake VP %d marked legitimate", i)
		}
	}
	if len(verdict.Legitimate) == 0 {
		t.Error("some legitimate VPs should be verified")
	}
}

func TestVerifySiteEmptySite(t *testing.T) {
	vm := chainViewmap(t, 4, 100)
	verdict, err := vm.VerifySite(nil, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Anchor != -1 || len(verdict.Legitimate) != 0 {
		t.Error("empty site should yield empty verdict")
	}
}

func TestVerdictLegitimateIDs(t *testing.T) {
	vm := chainViewmap(t, 5, 100)
	site := geo.RectAround(geo.Pt(400, 0), 150)
	verdict, err := vm.VerifySite(vm.InSite(site), TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := verdict.LegitimateIDs(vm)
	if len(ids) != len(verdict.Legitimate) {
		t.Error("LegitimateIDs length mismatch")
	}
}

func TestComponentsAndIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := FabricateProfile(stationary(geo.Pt(0, 0)), 0, 0, rng)
	b, _ := FabricateProfile(stationary(geo.Pt(100, 0)), 0, 0, rng)
	c, _ := FabricateProfile(stationary(geo.Pt(200, 0)), 0, 0, rng)
	vp.LinkMutually(a, b)
	a.Trusted = true
	vm, err := Build([]*vp.Profile{a, b, c}, BuildConfig{
		Site: geo.RectAround(geo.Pt(0, 0), 300), Minute: 0, DSRCRange: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	comps := vm.Components()
	if len(comps) != 2 {
		t.Errorf("components = %d, want 2", len(comps))
	}
	iso := vm.Isolated()
	if len(iso) != 1 {
		t.Errorf("isolated = %v, want one node", iso)
	}
}

func TestDOTOutput(t *testing.T) {
	vm := chainViewmap(t, 3, 100)
	dot := vm.DOT("test")
	if !strings.Contains(dot, "graph \"test\"") {
		t.Error("DOT should contain graph header")
	}
	if !strings.Contains(dot, "n0 -- n1") {
		t.Error("DOT should contain edges")
	}
	if !strings.Contains(dot, "color=red") {
		t.Error("DOT should highlight the trusted VP")
	}
}

func TestSynthesizeLegitimateConnectivity(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 120, Area: area, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 120 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	MarkTrustedNearest(profiles, geo.Pt(1000, 1000))
	vm, err := Build(profiles, BuildConfig{
		Site: geo.RectAround(geo.Pt(1000, 1000), 200), Minute: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At density 120 VPs / 4 km² with 400 m range the graph should be
	// essentially one giant component.
	comps := vm.Components()
	largest := 0
	for _, c := range comps {
		if len(c) > largest {
			largest = len(c)
		}
	}
	if frac := float64(largest) / float64(vm.Len()); frac < 0.9 {
		t.Errorf("largest component holds %.0f%% of VPs, want >= 90%%", frac*100)
	}
	// Verification on an attack-free viewmap should mark in-site VPs
	// legitimate.
	site := geo.RectAround(geo.Pt(1000, 1000), 200)
	verdict, err := vm.VerifySite(vm.InSite(site), TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inSite := vm.InSite(site)
	if len(inSite) == 0 {
		t.Skip("no VPs wandered into the site for this seed")
	}
	if frac := float64(len(verdict.Legitimate)) / float64(len(inSite)); frac < 0.8 {
		t.Errorf("only %.0f%% of in-site VPs verified on attack-free viewmap", frac*100)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := SynthesizeLegitimate(SynthConfig{N: 0, Area: geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1))}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := SynthesizeLegitimate(SynthConfig{N: 5, Area: geo.Rect{}}); err == nil {
		t.Error("degenerate area should fail")
	}
}

func TestFabricateProfileValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := FabricateProfile(make([]geo.Point, 10), 0, 0, rng); err == nil {
		t.Error("short track should fail")
	}
}

func TestRandomTrackStaysInArea(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(500, 500))
	for trial := 0; trial < 50; trial++ {
		track := RandomTrack(area, 20, rng)
		if len(track) != vd.SegmentSeconds {
			t.Fatal("track length wrong")
		}
		for _, p := range track {
			if !area.Inflate(25).Contains(p) {
				t.Fatalf("track left the area: %v", p)
			}
		}
	}
}

func TestLemma1Bound(t *testing.T) {
	if Lemma1Bound(0.8, 0) != 1 {
		t.Error("delta^0 = 1")
	}
	if math.Abs(Lemma1Bound(0.8, 2)-0.64) > 1e-12 {
		t.Error("delta^2 = 0.64")
	}
}

func BenchmarkTrustRank200(b *testing.B) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 200, Area: area, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	MarkTrustedNearest(profiles, geo.Pt(1000, 1000))
	vm, err := Build(profiles, BuildConfig{Site: geo.RectAround(geo.Pt(1000, 1000), 200), Minute: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.TrustRank(TrustRankConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Property (testing/quick): on random geometric viewmaps, TrustRank
// scores are non-negative, sum to at most 1, and obey the Lemma 1
// bound at every link distance.
func TestTrustRankInvariantsProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		n := 30 + int(n8%120)
		area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2500, 2500))
		profiles, err := SynthesizeLegitimate(SynthConfig{N: n, Area: area, Seed: seed})
		if err != nil {
			return false
		}
		MarkTrustedNearest(profiles, geo.Pt(1250, 1250))
		vm, err := Build(profiles, BuildConfig{
			Site: geo.RectAround(geo.Pt(1250, 1250), 200), Minute: 0,
		})
		if err != nil {
			return false
		}
		scores, err := vm.TrustRank(TrustRankConfig{})
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range scores {
			if s < 0 {
				return false
			}
			sum += s
		}
		if sum > 1+1e-6 {
			return false
		}
		hops := vm.HopsFromTrusted()
		for L := 1; L <= 6; L++ {
			var far []int
			for i, h := range hops {
				if h >= L || h == -1 {
					far = append(far, i)
				}
			}
			if SumScores(scores, far) > Lemma1Bound(DefaultDamping, L)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the verdict of Algorithm 1 is deterministic — identical
// inputs produce identical legitimate sets.
func TestVerifySiteDeterministicProperty(t *testing.T) {
	prop := func(seed int64) bool {
		area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
		profiles, err := SynthesizeLegitimate(SynthConfig{N: 80, Area: area, Seed: seed})
		if err != nil {
			return false
		}
		MarkTrustedNearest(profiles, geo.Pt(1000, 1000))
		site := geo.RectAround(geo.Pt(1000, 1000), 250)
		vm, err := Build(profiles, BuildConfig{Site: site, Minute: 0})
		if err != nil {
			return false
		}
		v1, err := vm.VerifySite(vm.InSite(site), TrustRankConfig{})
		if err != nil {
			return false
		}
		v2, err := vm.VerifySite(vm.InSite(site), TrustRankConfig{})
		if err != nil {
			return false
		}
		if v1.Anchor != v2.Anchor || len(v1.Legitimate) != len(v2.Legitimate) {
			return false
		}
		for i := range v1.Legitimate {
			if v1.Legitimate[i] != v2.Legitimate[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
