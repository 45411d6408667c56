package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// The linker property suite. The repository links viewmaps with one
// linker, IncrementalBuilder (incremental.go), reached through every
// ingest call the server makes and through Build; linkNaive is the
// executable specification both are held to.

// naiveReference re-links vm's member set with the retained O(n²)
// reference linker and returns the resulting adjacency.
func naiveReference(vm *Viewmap, rangeM float64) [][]int {
	ref := &Viewmap{Profiles: vm.Profiles, Adj: make([][]int, len(vm.Profiles))}
	ref.linkNaive(rangeM)
	return ref.Adj
}

func adjEqual(t *testing.T, label string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: node count %d, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: node %d has %d edges, reference %d (%v vs %v)",
				label, i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: node %d edge list %v, reference %v", label, i, got[i], want[i])
			}
		}
	}
}

// pollute inflates a profile's Bloom filter with extra random elements,
// pushing its false-positive rate far above any honest load so that
// single-digest false hits become routine and the linker's two-hit rule
// and dedup structures are exercised under false-positive pressure.
func pollute(p *vp.Profile, extra int, rng *rand.Rand) {
	buf := make([]byte, 24)
	for i := 0; i < extra; i++ {
		rng.Read(buf)
		p.Neighbors.Add(buf)
	}
}

// stackedCluster fabricates `count` co-located stationary profiles (the
// shape of an in-site fake cluster: maximal candidate-pair density),
// chain-linking consecutive ones.
func stackedCluster(t *testing.T, at geo.Point, count int, minute int64, rng *rand.Rand) []*vp.Profile {
	t.Helper()
	out := make([]*vp.Profile, count)
	for i := range out {
		p, err := FabricateProfile(stationary(at.Add(geo.Pt(float64(i%7), float64(i%5)))), minute, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
		if i > 0 {
			if err := vp.LinkMutually(out[i-1], p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// equivScenario is one randomized arena: n synthesized profiles on a
// side×side square linked at rangeM, plus a co-located stacked cluster,
// and Bloom false-positive pollution when fpHeavy is set.
type equivScenario struct {
	n       int
	side    float64
	rangeM  float64
	speed   float64
	cluster int
	fpHeavy bool
}

// equivScenarios lists count arenas; arena i synthesizes size(i)
// profiles. Every arena carries a stacked cluster of at least three, so
// an arena of size(i) >= 30 grows past gridRebuildMin and its ingest
// runs both the grid path and the tail scan.
func equivScenarios(count int, size func(i int) int) []equivScenario {
	out := make([]equivScenario, count)
	for i := range out {
		out[i] = equivScenario{
			n:       size(i),
			side:    1500 + float64(i%5)*700,
			rangeM:  150 + float64(i%4)*125,
			speed:   5 + float64(i%3)*12,
			cluster: 3 + (i%3)*15,
			fpHeavy: i%2 == 1,
		}
	}
	return out
}

// linkScenarios are TestLinkEquivalenceProperty's 22 arenas, of 40 to
// 299 synthesized profiles each.
func linkScenarios() []equivScenario {
	return equivScenarios(22, func(i int) int { return 40 + (i*37)%260 })
}

// restoreScenarios are the 14 arenas of TestIncrementalEquivalenceProperty
// and TestStageLinkedRestoresAddedGraph, of 30 to 249 synthesized
// profiles each.
func restoreScenarios() []equivScenario {
	return equivScenarios(14, func(i int) int { return 30 + (i*41)%220 })
}

// arena synthesizes scenario si's minute-0 profiles, with the trusted
// VP nearest the centre marked, and returns them with the area and the
// scenario's random source for the caller's further draws.
func (sc equivScenario) arena(t *testing.T, si int) ([]*vp.Profile, geo.Rect, *rand.Rand) {
	t.Helper()
	seed := int64(1000 + si)
	rng := rand.New(rand.NewSource(seed))
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(sc.side, sc.side))
	profiles, err := SynthesizeLegitimate(SynthConfig{
		N: sc.n, Area: area, Seed: seed, SpeedMS: sc.speed, DSRCRange: sc.rangeM,
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles = append(profiles, stackedCluster(t, area.Center(), sc.cluster, 0, rng)...)
	if sc.fpHeavy {
		for _, p := range profiles {
			pollute(p, 2000, rng)
		}
	}
	MarkTrustedNearest(profiles, area.Center())
	return profiles, area, rng
}

// TestLinkEquivalenceProperty holds the linker to linkNaive across
// randomized arenas — varying population sizes, DSRC ranges, speeds,
// dense co-located clusters and Bloom false-positive-heavy filters —
// through every way profiles reach it (see linkerProperty).
func TestLinkEquivalenceProperty(t *testing.T) {
	runLinkerProperty(t, linkScenarios())
}

// TestIncrementalEquivalenceProperty runs the same property over the
// restore arenas, whose smaller populations put more of each ingest on
// the ungridded tail scan.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	runLinkerProperty(t, restoreScenarios())
}

func runLinkerProperty(t *testing.T, scenarios []equivScenario) {
	if testing.Short() {
		t.Skip("equivalence sweep is not short")
	}
	for si, sc := range scenarios {
		t.Run(fmt.Sprintf("seed=%d/n=%d/fp=%v", si, sc.n, sc.fpHeavy), func(t *testing.T) {
			t.Parallel()
			linkerProperty(t, sc, si)
		})
	}
}

// linkerProperty checks one arena. Build's viewlinks must equal
// linkNaive's over Build's members. A builder fed the arena in random
// order, through a random mix of Add, AddBatch and Stage bursts
// committed once, must extract at the site (ViewmapFor) the same
// members in the same order, the same trusted set and coverage as
// Build over that order, and linkNaive's viewlinks.
func linkerProperty(t *testing.T, sc equivScenario, si int) {
	profiles, area, rng := sc.arena(t, si)
	perm := make([]*vp.Profile, len(profiles))
	for i, j := range rng.Perm(len(profiles)) {
		perm[i] = profiles[j]
	}

	b := NewIncrementalBuilder(IncrementalConfig{Minute: 0, DSRCRange: sc.rangeM})
	stage := func(burst []*vp.Profile) {
		for _, p := range burst {
			if ok, err := b.Stage(p); err != nil || !ok {
				t.Fatalf("Stage = (%v, %v), want staged", ok, err)
			}
		}
	}
	for off := 0; off < len(perm); {
		burst := perm[off:min(off+1+rng.Intn(17), len(perm))]
		switch rng.Intn(3) {
		case 0:
			if _, err := b.Add(burst[0]); err != nil {
				t.Fatal(err)
			}
			burst = burst[:1]
		case 1:
			if _, err := b.AddBatch(burst); err != nil {
				t.Fatal(err)
			}
		case 2:
			stage(burst)
			b.CommitStaged()
		}
		off += len(burst)
	}
	if b.Len() != len(perm) {
		t.Fatalf("builder holds %d profiles, ingested %d", b.Len(), len(perm))
	}

	site := geo.RectAround(area.Center(), 200)
	batch, err := Build(perm, BuildConfig{Site: site, Minute: 0, DSRCRange: sc.rangeM})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveReference(batch, sc.rangeM)
	adjEqual(t, "Build vs naive", batch.Adj, want)

	inc, err := b.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Len() != batch.Len() {
		t.Fatalf("ViewmapFor admits %d members, Build %d", inc.Len(), batch.Len())
	}
	for i := range batch.Profiles {
		if inc.Profiles[i] != batch.Profiles[i] {
			t.Fatalf("member order diverges at node %d", i)
		}
	}
	if fmt.Sprint(inc.Trusted) != fmt.Sprint(batch.Trusted) {
		t.Fatalf("trusted sets diverge: %v vs %v", inc.Trusted, batch.Trusted)
	}
	if inc.Coverage != batch.Coverage {
		t.Fatalf("coverage diverges: %+v vs %+v", inc.Coverage, batch.Coverage)
	}
	adjEqual(t, "ViewmapFor vs naive", inc.Adj, want)
}

// TestLinkParallelPath builds one arena from several goroutines at
// once, as the verification sweeps do: the builds share the profiles'
// lazily derived digest caches (vp.Profile.Digests, EdgeDigests). Each
// result is checked against the reference. Run under -race in CI.
func TestLinkParallelPath(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(3500, 3500))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 256, Area: area, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	MarkTrustedNearest(profiles, area.Center())
	cfg := BuildConfig{Site: geo.RectAround(area.Center(), 200), Minute: 0}

	var wg sync.WaitGroup
	vms := make([]*Viewmap, 4)
	errs := make([]error, 4)
	for g := range vms {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vms[g], errs[g] = Build(profiles, cfg)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("concurrent build %d: %v", g, err)
		}
	}
	want := naiveReference(vms[0], DefaultDSRCRange)
	for g, vm := range vms {
		adjEqual(t, fmt.Sprintf("concurrent build %d", g), vm.Adj, want)
	}
}
