package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// bitsEqual reports whether two score vectors are identical bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// inSiteConnected reports whether the subgraph induced by the in-site
// nodes is connected, by a BFS from the first of them.
func inSiteConnected(vm *Viewmap, inSite []int) bool {
	in := make(map[int]bool, len(inSite))
	for _, i := range inSite {
		in[i] = true
	}
	seen := map[int]bool{inSite[0]: true}
	queue := []int{inSite[0]}
	for head := 0; head < len(queue); head++ {
		for _, v := range vm.Adj[queue[head]] {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(in)
}

// TestVerifySiteFromColdProperty holds VerifySiteFrom's start from the
// seed vector to VerifySite on randomized Build viewmaps — varying N,
// arena, DSRC range, site and trusted VP, with zero to two stacked
// colluder clusters inside the site. The Legitimate set must be
// VerifySite's and the run must not count as warm. A connected in-site
// subgraph takes no power step, and any other takes at least one and
// at most VerifySite's count; a run that takes exactly that many has
// not certified early and must return VerifySite's scores and anchor
// bit for bit. Every outcome must occur: connected, certified early
// with two or more components, and run to epsilon.
func TestVerifySiteFromColdProperty(t *testing.T) {
	outcomes := make(map[string]int)
	for si := 0; si < 150; si++ {
		seed := int64(5200 + si)
		rng := rand.New(rand.NewSource(seed))
		side := 1200 + rng.Float64()*1800
		rangeM := 120 + rng.Float64()*280
		area := geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
		profiles, err := SynthesizeLegitimate(SynthConfig{
			N: 30 + rng.Intn(170), Area: area, Seed: seed, DSRCRange: rangeM,
		})
		if err != nil {
			t.Fatal(err)
		}
		site := geo.RectAround(geo.Pt(rng.Float64()*side, rng.Float64()*side), 150+rng.Float64()*250)
		// The trusted VP is the honest one nearest a random point, so
		// trust sometimes reaches the site weakly or not at all.
		MarkTrustedNearest(profiles, geo.Pt(rng.Float64()*side, rng.Float64()*side))
		for c := rng.Intn(3); c > 0; c-- {
			profiles = append(profiles, stackedCluster(t, site.Center(), 3+rng.Intn(10), 0, rng)...)
		}
		vm, err := Build(profiles, BuildConfig{Site: site, Minute: 0, DSRCRange: rangeM})
		if err != nil {
			t.Fatal(err)
		}
		inSite := vm.InSite(site)
		if len(inSite) == 0 {
			continue
		}
		want, wantIters, err := vm.verifySiteScored(inSite, TrustRankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := vm.VerifySiteFrom(inSite, nil, TrustRankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d (%d members, %d in site)", seed, vm.Len(), len(inSite))
		if !slices.Equal(got.Legitimate, want.Legitimate) {
			t.Fatalf("%s: legitimate set %v, VerifySite's %v", label, got.Legitimate, want.Legitimate)
		}
		if stats.Warm {
			t.Fatalf("%s: a run with no previous scores reported warm", label)
		}
		connected := inSiteConnected(vm, inSite)
		if (stats.Iterations == 0) != connected {
			t.Fatalf("%s: %d steps over a site whose in-site subgraph connected=%v",
				label, stats.Iterations, connected)
		}
		switch {
		case connected:
			outcomes["connected"]++
		case stats.Iterations < wantIters:
			outcomes["certified"]++
		case stats.Iterations == wantIters:
			if got.Anchor != want.Anchor || !bitsEqual(got.Scores, want.Scores) {
				t.Fatalf("%s: ran VerifySite's %d steps but its anchor or scores differ", label, wantIters)
			}
			outcomes["epsilon"]++
		default:
			t.Fatalf("%s: %d steps, VerifySite stops after %d", label, stats.Iterations, wantIters)
		}
	}
	for _, o := range []string{"connected", "certified", "epsilon"} {
		if outcomes[o] == 0 {
			t.Fatalf("outcome %q never occurred: %v", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// handViewmap is a viewmap over n nodes with the given undirected
// edges and node 0 trusted; only its graph is set.
func handViewmap(n int, edges [][2]int) *Viewmap {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, row := range adj {
		slices.Sort(row)
	}
	return &Viewmap{Profiles: make([]*vp.Profile, n), Adj: adj, Trusted: []int{0}}
}

// TestVerifySiteFromEarlyLeaderLoses is a site whose leading component
// after the first step is not the fixed point's leader. The trusted
// node 0, outside the site, links in-site node 1 and three outside
// nodes, which all link in-site node 5: one step from the seed vector
// scores node 1 above node 5, yet node 5 leads at the fixed point. A
// certificate that accepted any positive gap would return {1}. A
// previous vector longer than the viewmap cannot belong to it, so that
// run must equal the one with no previous vector exactly.
func TestVerifySiteFromEarlyLeaderLoses(t *testing.T) {
	vm := handViewmap(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {2, 5}, {3, 5}, {4, 5}})
	inSite := []int{1, 5}
	want, err := vm.VerifySite(inSite, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Legitimate, []int{5}) {
		t.Fatalf("VerifySite's legitimate set %v, want [5]", want.Legitimate)
	}
	d, p, err := vm.trustSeed(TrustRankConfig{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	first := make([]float64, len(p))
	vm.step(d, p, first, DefaultDamping)
	if first[1] <= first[5] {
		t.Fatalf("after one step node 1 scores %v and node 5 %v; the case needs node 1 ahead", first[1], first[5])
	}
	for _, start := range []struct {
		name string
		prev []float64
	}{
		{"cold", nil},
		{"warm from the first step", first},
		{"warm from all mass on node 1", []float64{0, 1, 0, 0, 0, 0}},
		{"warm from the fixed point", want.Scores},
	} {
		got, stats, err := vm.VerifySiteFrom(inSite, start.prev, TrustRankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Legitimate, want.Legitimate) {
			t.Fatalf("%s: legitimate set %v (warm=%v, %d steps), VerifySite's %v",
				start.name, got.Legitimate, stats.Warm, stats.Iterations, want.Legitimate)
		}
	}
	cold, coldStats, err := vm.VerifySiteFrom(inSite, nil, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	long, longStats, err := vm.VerifySiteFrom(inSite, []float64{0, 1, 0, 0, 0, 0, 0}, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if longStats != coldStats || long.Anchor != cold.Anchor || !bitsEqual(long.Scores, cold.Scores) {
		t.Fatalf("prev longer than the viewmap: %+v anchor %d; no prev: %+v anchor %d",
			longStats, long.Anchor, coldStats, cold.Anchor)
	}
}

// TestVerifySiteFromExactTieFallsBack is a symmetric site: the trusted
// node 0 links in-site nodes 1 and 2 alone, so after any step their
// scores tie exactly and no certificate can separate their components.
// Started cold or warm, the loop must end on VerifySite's own iterates:
// anchor 1 (the lower id), legitimate set {1}, scores bit for bit.
func TestVerifySiteFromExactTieFallsBack(t *testing.T) {
	vm := handViewmap(3, [][2]int{{0, 1}, {0, 2}})
	inSite := []int{1, 2}
	want, wantIters, err := vm.verifySiteScored(inSite, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Anchor != 1 || !slices.Equal(want.Legitimate, []int{1}) {
		t.Fatalf("VerifySite anchored %d with %v, want 1 with [1]", want.Anchor, want.Legitimate)
	}
	for _, start := range []struct {
		name string
		prev []float64
	}{
		{"cold", nil},
		{"warm from the fixed point", want.Scores},
		{"warm from an uneven vector", []float64{0.2, 0.5, 0}},
	} {
		got, stats, err := vm.VerifySiteFrom(inSite, start.prev, TrustRankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Warm {
			t.Fatalf("%s: a tie certified as warm", start.name)
		}
		if got.Anchor != want.Anchor || !slices.Equal(got.Legitimate, want.Legitimate) || !bitsEqual(got.Scores, want.Scores) {
			t.Fatalf("%s: anchor %d, legitimate %v; VerifySite's %d, %v (scores equal: %v)",
				start.name, got.Anchor, got.Legitimate, want.Anchor, want.Legitimate, bitsEqual(got.Scores, want.Scores))
		}
		if start.prev == nil && stats.Iterations != wantIters {
			t.Fatalf("cold: %d steps, VerifySite %d", stats.Iterations, wantIters)
		}
		if start.prev != nil && stats.Iterations <= wantIters {
			t.Fatalf("%s: %d steps do not include a warm run before VerifySite's %d", start.name, stats.Iterations, wantIters)
		}
	}
}
