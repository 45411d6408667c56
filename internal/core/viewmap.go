// Package core implements the paper's primary contribution: viewmap
// construction from anonymized view profiles (Section 5.2.1) and
// TrustRank-based view-profile verification (Section 5.2.2,
// Algorithm 1).
//
// A viewmap is an undirected graph over the VPs active in one unit-time
// (1-minute) window inside a coverage area that encompasses the
// investigation site and the nearest trusted VP. Edges — viewlinks —
// connect VPs that pass the two-way linkage test: time-aligned
// proximity within DSRC range plus mutual Bloom-filter membership of
// each other's view digests. Trust scores propagate from trusted VPs
// over this structure; fake VPs injected by attackers can only attach
// to the attackers' own legitimate VPs, forming secondary layers that
// receive little trust.
package core

import (
	"fmt"
	"math"
	"sort"

	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// DefaultDSRCRange is the paper's nominal DSRC reach in metres.
const DefaultDSRCRange = 400

// Viewmap is the visibility graph for one minute around an incident.
// A viewmap is read-only once built: the traversals (TrustRank, the
// site BFS, HopsFromTrusted, Components) walk Adj's rows in place, and
// viewmaps a SiteView publishes share their rows' backing arrays with
// later patches, which only append past each row's published length.
type Viewmap struct {
	// Profiles are the member VPs; index positions are node ids.
	Profiles []*vp.Profile
	// Adj is the adjacency list of viewlinks, each row ascending.
	Adj [][]int
	// Trusted lists node ids of trusted VPs.
	Trusted []int
	// Coverage is the geographic span of the viewmap.
	Coverage geo.Rect
	// Minute is the unit-time window the viewmap covers.
	Minute int64
}

// BuildConfig parameterizes viewmap construction.
type BuildConfig struct {
	// Site is the investigation site.
	Site geo.Rect
	// Minute selects the unit-time window.
	Minute int64
	// DSRCRange is the viewlink proximity radius; zero selects the
	// 400 m default.
	DSRCRange float64
	// CoverageMargin inflates the coverage area beyond the hull of the
	// site and the selected trusted VP trajectory; zero selects the
	// DSRC range.
	CoverageMargin float64
	// RequirePlausible drops profiles whose trajectories exceed
	// drivable speeds before linking (on by default in the server;
	// exposed here for experiments).
	RequirePlausible bool
}

// Build constructs the viewmap for cfg from the candidate profiles
// (the VP database's holdings for the minute). Per Section 5.2.1 it
// selects the trusted VP closest to the site, spans a coverage area
// encompassing both, admits every VP whose claimed trajectory enters
// the coverage during the minute, and creates viewlinks between
// two-way-validated neighbor VPs.
func Build(profiles []*vp.Profile, cfg BuildConfig) (*Viewmap, error) {
	if cfg.DSRCRange <= 0 {
		cfg.DSRCRange = DefaultDSRCRange
	}
	if cfg.CoverageMargin <= 0 {
		cfg.CoverageMargin = cfg.DSRCRange
	}

	// Select the trusted VP(s) nearest to the site among this minute's
	// profiles. Trusted VPs need not be near the incident; the coverage
	// stretches to reach them.
	siteCenter := cfg.Site.Center()
	bestDist := math.Inf(1)
	var nearestTrusted *vp.Profile
	var minuteProfiles []*vp.Profile
	for _, p := range profiles {
		if p.Minute() != cfg.Minute {
			continue
		}
		if cfg.RequirePlausible && !p.PlausibleTrajectory() {
			continue
		}
		minuteProfiles = append(minuteProfiles, p)
		if !p.Trusted {
			continue
		}
		for i := range p.VDs {
			if d := p.VDs[i].L.Dist(siteCenter); d < bestDist {
				bestDist = d
				nearestTrusted = p
			}
		}
	}
	if nearestTrusted == nil {
		return nil, ErrNoTrusted
	}

	// Coverage: hull of the site and the trusted trajectory, inflated.
	cover := cfg.Site
	for i := range nearestTrusted.VDs {
		cover = expand(cover, nearestTrusted.VDs[i].L)
	}
	cover = cover.Inflate(cfg.CoverageMargin)

	vm := &Viewmap{Coverage: cover, Minute: cfg.Minute}
	seen := make(map[vd.VPID]bool)
	for _, p := range minuteProfiles {
		if !p.EntersArea(cover) {
			continue
		}
		id := p.ID()
		if seen[id] {
			continue // identifier collision: keep first, drop clone
		}
		seen[id] = true
		vm.Profiles = append(vm.Profiles, p)
	}
	for i, p := range vm.Profiles {
		if p.Trusted {
			vm.Trusted = append(vm.Trusted, i)
		}
	}

	// Link the members with the one linker (incremental.go): stage them
	// in member order, commit once, and take the builder's adjacency.
	// Every member is of cfg.Minute with a distinct identifier, so every
	// one stages.
	b := NewIncrementalBuilder(IncrementalConfig{Minute: cfg.Minute, DSRCRange: cfg.DSRCRange})
	for _, p := range vm.Profiles {
		if _, err := b.Stage(p); err != nil {
			return nil, err
		}
	}
	b.CommitStaged()
	vm.Adj = b.adj
	return vm, nil
}

func expand(r geo.Rect, p geo.Point) geo.Rect {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
	return r
}

// linkNaive is the O(n²) reference linker: the executable specification
// of Section 5.2.1's two-way linkage test. The one linker
// (IncrementalBuilder, behind Build and the server's burst pipeline)
// must produce exactly this adjacency; the property suite in
// viewmap_equiv_test.go holds the two together across randomized
// arenas.
func (vm *Viewmap) linkNaive(rangeM float64) {
	if rangeM <= 0 {
		rangeM = DefaultDSRCRange
	}
	n := len(vm.Profiles)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if vp.MutualNeighbors(vm.Profiles[a], vm.Profiles[b], rangeM) {
				vm.Adj[a] = append(vm.Adj[a], b)
				vm.Adj[b] = append(vm.Adj[b], a)
			}
		}
	}
	for i := range vm.Adj {
		sort.Ints(vm.Adj[i])
	}
}

// Len returns the number of member VPs.
func (vm *Viewmap) Len() int { return len(vm.Profiles) }

// NumEdges returns the number of viewlinks.
func (vm *Viewmap) NumEdges() int {
	total := 0
	for _, a := range vm.Adj {
		total += len(a)
	}
	return total / 2
}

// Degree returns the viewlink count of node i.
func (vm *Viewmap) Degree(i int) int { return len(vm.Adj[i]) }

// Isolated returns the node ids with no viewlinks — the non-member
// fraction Fig. 22f reports.
func (vm *Viewmap) Isolated() []int {
	var out []int
	for i, a := range vm.Adj {
		if len(a) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// InSite returns the node ids whose claimed trajectories enter the
// given investigation site during the viewmap's minute.
func (vm *Viewmap) InSite(site geo.Rect) []int {
	var out []int
	for i, p := range vm.Profiles {
		if p.EntersArea(site) {
			out = append(out, i)
		}
	}
	return out
}

// HopsFromTrusted returns, for each node, the minimum link distance to
// any trusted VP (-1 when unreachable). Used by the Lemma 1 bound
// checks and the Fig. 12 attacker-position sweep.
func (vm *Viewmap) HopsFromTrusted() []int {
	dist := make([]int, len(vm.Profiles))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(vm.Trusted))
	for _, t := range vm.Trusted {
		dist[t] = 0
		queue = append(queue, t)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range vm.Adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Components returns the connected components as slices of node ids.
func (vm *Viewmap) Components() [][]int {
	comp := make([]int, len(vm.Profiles))
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for i := range vm.Profiles {
		if comp[i] != -1 {
			continue
		}
		var cur []int
		stack := []int{i}
		comp[i] = len(out)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cur = append(cur, u)
			for _, v := range vm.Adj[u] {
				if comp[v] == -1 {
					comp[v] = len(out)
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(cur)
		out = append(out, cur)
	}
	return out
}

// DOT renders the viewmap in Graphviz format, coloring trusted VPs,
// for the Fig. 21 visualizations.
func (vm *Viewmap) DOT(name string) string {
	var b []byte
	b = append(b, fmt.Sprintf("graph %q {\n  node [shape=point];\n", name)...)
	for i, p := range vm.Profiles {
		loc := p.InitialLocation()
		attr := ""
		if p.Trusted {
			attr = ", color=red, shape=circle"
		}
		b = append(b, fmt.Sprintf("  n%d [pos=\"%.1f,%.1f!\"%s];\n", i, loc.X, loc.Y, attr)...)
	}
	for i, adj := range vm.Adj {
		for _, j := range adj {
			if i < j {
				b = append(b, fmt.Sprintf("  n%d -- n%d;\n", i, j)...)
			}
		}
	}
	b = append(b, '}', '\n')
	return string(b)
}
