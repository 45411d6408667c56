package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// This file moves viewmap construction online. Build (viewmap.go) is
// the batch formulation: given every profile of a minute, link all
// pairs at once. The system service, however, absorbs a continuous
// stream of anonymous VP uploads and must answer investigations at any
// point in between; rebuilding the whole minute per request repeats
// the full pairwise linkage work the PR-1 linker already spent. The
// IncrementalBuilder maintains the minute's full visibility graph as
// profiles arrive — each new VP is tested only against its candidate
// neighbors, discovered through the same dense CellGrid the batch
// linker uses — so an investigation reduces to extracting the induced
// subgraph over the coverage members, which is O(members + edges)
// instead of O(candidate pairs x Bloom probes).
//
// Ingest is split into two phases so the server's burst pipeline can
// keep the expensive half outside its shard lock:
//
//	Stage  — admission checks, bounding box, candidate enumeration and
//	         Bloom probing; touches only builder-private state.
//	CommitStaged — splices the staged profiles into the reader-visible
//	         graph (profiles, adjacency, index, trusted, epoch).
//
// Add is exactly Stage followed by CommitStaged, so the sequential
// path and the burst path share one code path and produce identical
// graphs by construction. The contract: between Stage and
// CommitStaged the builder accepts no concurrent access of any kind;
// CommitStaged alone must be serialized against readers (ViewmapFor).
//
// StageLinked is Stage's restore twin: it takes a node's viewlinks as
// LowerLinks saved them instead of probing candidates, so a graph
// written out with its links comes back without relinking.

// gridRebuildMin is the smallest ungridded tail that triggers a grid
// rebuild. Below it, the linear tail scan is cheaper than rebuilding.
const gridRebuildMin = 32

// Per-node trajectory window boxes: each node's minute is split into
// linkWindows windows of linkWindowLen seconds, and the bounding box of
// each window's samples is kept in a flat slab. Two profiles can be
// within DSRC range at second i only if the window boxes containing i
// are within range of each other, so the proximity half of the linkage
// test rejects most far candidates on a handful of contiguous box
// distances instead of walking both 60-sample trajectories. The test
// stays exact: a window that passes is re-checked sample by sample.
const (
	linkWindowLen = 8
	linkWindows   = (vd.SegmentSeconds + linkWindowLen - 1) / linkWindowLen
)

// wbox is one window's bounding box in float32, rounded outward so the
// compact form always contains the exact float64 box. The window test
// additionally inflates its range threshold by wboxSlack — far larger
// than any outward-rounding error at map coordinates — so float32
// arithmetic can only let a window through to the exact per-sample
// scan, never reject one the float64 geometry would pass.
type wbox struct {
	x0, y0, x1, y1 float32
}

const wboxSlack = 1.0 // m², added to the squared-range threshold

// dist2LowerBound returns a lower bound (within wboxSlack) on the
// squared distance between two windows' boxes.
func (a wbox) dist2LowerBound(b wbox) float64 {
	dx := a.x0 - b.x1
	if d := b.x0 - a.x1; d > dx {
		dx = d
	}
	if dx < 0 {
		dx = 0
	}
	dy := a.y0 - b.y1
	if d := b.y0 - a.y1; d > dy {
		dy = d
	}
	if dy < 0 {
		dy = 0
	}
	return float64(dx)*float64(dx) + float64(dy)*float64(dy)
}

// wboxOf converts an exact window box to the outward-rounded compact
// form.
func wboxOf(r geo.Rect) wbox {
	return wbox{
		x0: f32Down(r.Min.X), y0: f32Down(r.Min.Y),
		x1: f32Up(r.Max.X), y1: f32Up(r.Max.Y),
	}
}

func f32Down(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func f32Up(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// IncrementalConfig parameterizes an IncrementalBuilder. The fields
// mirror the construction-relevant subset of BuildConfig; the
// site-dependent fields (Site, CoverageMargin) move to ViewmapFor,
// which is where a site first becomes known.
type IncrementalConfig struct {
	// Minute is the unit-time window this builder maintains; profiles
	// from any other minute are rejected by Add.
	Minute int64
	// DSRCRange is the viewlink proximity radius; zero selects the
	// 400 m default.
	DSRCRange float64
	// RequirePlausible drops profiles whose trajectories exceed
	// drivable speeds at ingest, exactly as Build does before linking.
	RequirePlausible bool
}

// stagedProfile is one profile that has passed admission and linking
// (Stage) but is not yet part of the reader-visible graph.
type stagedProfile struct {
	p *vp.Profile
	// neighbors holds the node ids this profile links to, sorted
	// ascending. Staging assigns node ids in order, so every neighbor
	// id is smaller than the staged profile's own id whether the
	// neighbor is committed or staged earlier in the same burst.
	neighbors []int
}

// IncrementalBuilder maintains one minute's viewmap online: every
// accepted profile is linked against the existing members at ingest
// ("link-on-ingest"), so the minute's visibility graph is always
// current and investigations never pay for a from-scratch rebuild.
//
// Candidates are enumerated from the same dense geo.CellGrid the batch
// linker uses, over trajectory bounding boxes. The grid is immutable,
// so it is rebuilt with amortized O(1) cost per ingest: profiles added
// since the last rebuild are scanned linearly, and once that ungridded
// tail outgrows the gridded prefix the grid is rebuilt over everything.
//
// The zero value is not usable; construct with NewIncrementalBuilder.
// An IncrementalBuilder is NOT safe for unmediated concurrent use.
// The server's burst pipeline relies on the phase split: exactly one
// link worker per shard calls Stage (and is the only goroutine that
// touches the staging state: pending, boxes, grid, visit stamps),
// while CommitStaged and ViewmapFor are serialized under the shard
// lock.
type IncrementalBuilder struct {
	cfg IncrementalConfig

	// Reader-visible graph: mutated only by CommitStaged, read by
	// ViewmapFor and accessors. The server serializes those under its
	// shard lock.
	profiles []*vp.Profile
	adj      [][]int
	trusted  []int
	index    map[vd.VPID]int
	epoch    uint64
	edges    int

	// Staging state, private to the single staging goroutine. boxes
	// spans committed AND staged nodes (len == total()); wboxes is the
	// per-window refinement, linkWindows entries per node.
	pending      []stagedProfile
	pendingIndex map[vd.VPID]int
	boxes        []geo.Rect
	wboxes       []wbox

	grid  *geo.CellGrid
	gridN int // boxes[0:gridN] are covered by grid

	// visited/visitStamp dedup grid candidates per Stage (a box
	// spanning several cells is reported once per cell).
	visited    []uint64
	visitStamp uint64
}

// NewIncrementalBuilder creates an empty builder for one unit-time
// window.
func NewIncrementalBuilder(cfg IncrementalConfig) *IncrementalBuilder {
	if cfg.DSRCRange <= 0 {
		cfg.DSRCRange = DefaultDSRCRange
	}
	return &IncrementalBuilder{
		cfg:          cfg,
		index:        make(map[vd.VPID]int),
		pendingIndex: make(map[vd.VPID]int),
	}
}

// Minute returns the unit-time window the builder maintains.
func (b *IncrementalBuilder) Minute() int64 { return b.cfg.Minute }

// Len returns the number of linked member profiles.
func (b *IncrementalBuilder) Len() int { return len(b.profiles) }

// Epoch returns a counter that increments on every accepted ingest.
// Callers cache viewmaps keyed by epoch: an unchanged epoch guarantees
// the underlying graph has not changed.
func (b *IncrementalBuilder) Epoch() uint64 { return b.epoch }

// NumEdges returns the number of viewlinks in the maintained graph.
// It is an O(1) counter maintained by CommitStaged, so callers can use
// it (together with Len) to size the perturbation since a previous
// epoch when deciding between warm and cold re-verification.
func (b *IncrementalBuilder) NumEdges() int { return b.edges }

// total returns the number of committed plus staged nodes.
func (b *IncrementalBuilder) total() int { return len(b.profiles) + len(b.pending) }

// profileAt resolves a node id across the committed/staged boundary.
func (b *IncrementalBuilder) profileAt(i int) *vp.Profile {
	if i < len(b.profiles) {
		return b.profiles[i]
	}
	return b.pending[i-len(b.profiles)].p
}

// Add ingests one profile, linking it against the existing members.
// It returns true when the profile joined the graph; implausible
// trajectories (when RequirePlausible is set) and duplicate
// identifiers are dropped with (false, nil), matching Build's
// admission rules. A profile from a different minute is an error.
func (b *IncrementalBuilder) Add(p *vp.Profile) (bool, error) {
	ok, err := b.Stage(p)
	if err != nil || !ok {
		return false, err
	}
	b.CommitStaged()
	return true, nil
}

// Stage runs the ingest front half for one profile: admission checks
// (minute, plausibility, duplicate against both committed and staged
// members), bounding box, and the candidate enumeration plus Bloom
// probing that dominate ingest cost. Accepted profiles queue with
// their resolved viewlinks until CommitStaged. Stage touches no
// reader-visible state, so the burst pipeline runs it outside the
// shard lock; it must never run concurrently with itself, with
// CommitStaged, or with AbandonStaged.
func (b *IncrementalBuilder) Stage(p *vp.Profile) (bool, error) {
	if ok, err := b.admit(p); !ok {
		return false, err
	}
	box, wb := trajectoryBoxes(p)
	// Link the newcomer against every existing node — committed and
	// staged: grid candidates from the gridded prefix, then a linear
	// scan of the ungridded tail.
	neighbors := b.linkCandidates(p, box, &wb, b.total())
	sort.Ints(neighbors)
	b.push(p, box, &wb, neighbors)
	return true, nil
}

// StageLinked is Stage with the viewlinks already known: it runs
// Stage's admission and its box, window-box and grid bookkeeping, but
// takes links — the node's neighbours with smaller ids, as LowerLinks
// reported them when the graph was saved — instead of probing
// candidates. Feeding a saved minute's profiles back in their original
// order, each with its saved list, and committing once restores the
// graph and the staging state that the original Adds built. Links must
// be strictly ascending ids below the new node's id; anything else is
// an error and stages nothing. A profile that fails admission returns
// (false, nil) without consuming its links. The builder keeps links as
// the node's adjacency, so the caller must not modify it afterwards.
func (b *IncrementalBuilder) StageLinked(p *vp.Profile, links []int) (bool, error) {
	if ok, err := b.admit(p); !ok {
		return false, err
	}
	node := b.total()
	for i, nb := range links {
		if nb < 0 || nb >= node || (i > 0 && nb <= links[i-1]) {
			return false, fmt.Errorf("core: saved link %d of node %d is not a strictly ascending id below it", nb, node)
		}
	}
	box, wb := trajectoryBoxes(p)
	// Clip the capacity: CommitStaged appends later neighbours to the
	// list, which must never spill into memory the caller shares.
	b.push(p, box, &wb, links[:len(links):len(links)])
	return true, nil
}

// LowerLinks returns every committed node's neighbours with smaller
// ids, ascending, in node order: the lists Stage resolved for the
// nodes, which StageLinked takes back. Call it where ViewmapFor may be
// called (serialized against CommitStaged). The lists share the
// builder's adjacency, yet stay valid without the lock afterwards:
// commits only append larger ids past each list's end. Callers must
// not modify them.
func (b *IncrementalBuilder) LowerLinks() [][]int {
	out := make([][]int, len(b.adj))
	for i, a := range b.adj {
		k := sort.SearchInts(a, i)
		out[i] = a[:k:k]
	}
	return out
}

// admit runs Stage's admission checks: a profile from another minute is
// an error; an implausible trajectory (when RequirePlausible is set)
// or an identifier already committed or staged is dropped.
func (b *IncrementalBuilder) admit(p *vp.Profile) (bool, error) {
	if m := p.Minute(); m != b.cfg.Minute {
		return false, fmt.Errorf("core: profile minute %d, builder maintains %d", m, b.cfg.Minute)
	}
	if b.cfg.RequirePlausible && !p.PlausibleTrajectory() {
		return false, nil
	}
	id := p.ID()
	if _, dup := b.index[id]; dup {
		return false, nil
	}
	if _, dup := b.pendingIndex[id]; dup {
		return false, nil
	}
	return true, nil
}

// trajectoryBoxes returns a profile's trajectory bounding box and its
// per-window boxes.
func trajectoryBoxes(p *vp.Profile) (geo.Rect, [linkWindows]wbox) {
	box := geo.Rect{Min: p.VDs[0].L, Max: p.VDs[0].L}
	var exact [linkWindows]geo.Rect
	for i := range p.VDs {
		l := p.VDs[i].L
		box = expand(box, l)
		if w := i / linkWindowLen; i%linkWindowLen == 0 {
			exact[w] = geo.Rect{Min: l, Max: l}
		} else {
			exact[w] = expand(exact[w], l)
		}
	}
	var wb [linkWindows]wbox
	for w, n := 0, len(p.VDs); w*linkWindowLen < n; w++ {
		wb[w] = wboxOf(exact[w])
	}
	return box, wb
}

// push queues an admitted profile with its resolved neighbours and
// records its boxes for later candidate enumeration.
func (b *IncrementalBuilder) push(p *vp.Profile, box geo.Rect, wb *[linkWindows]wbox, neighbors []int) {
	b.pendingIndex[p.ID()] = b.total()
	b.pending = append(b.pending, stagedProfile{p: p, neighbors: neighbors})
	b.boxes = append(b.boxes, box)
	b.wboxes = append(b.wboxes, wb[:]...)
	b.maybeRebuildGrid()
}

// CommitStaged splices every staged profile into the reader-visible
// graph, in staging order, and returns how many were committed. Each
// commit increments the epoch, exactly as the equivalent sequence of
// sequential Adds would. Callers serialize CommitStaged against
// ViewmapFor and the accessors (the server holds its shard lock).
func (b *IncrementalBuilder) CommitStaged() int {
	committed := len(b.pending)
	for i := range b.pending {
		s := &b.pending[i]
		node := len(b.profiles)
		// Every neighbor id is smaller than node: committed neighbors
		// by construction, burst-mates because they committed in the
		// loop iterations before this one. Appending node keeps each
		// neighbor's adjacency sorted, since node is the largest id.
		for _, nb := range s.neighbors {
			b.adj[nb] = append(b.adj[nb], node)
		}
		b.index[s.p.ID()] = node
		b.profiles = append(b.profiles, s.p)
		b.adj = append(b.adj, s.neighbors)
		if s.p.Trusted {
			b.trusted = append(b.trusted, node)
		}
		b.edges += len(s.neighbors)
		b.epoch++
	}
	b.pending = b.pending[:0]
	if len(b.pendingIndex) > 0 {
		b.pendingIndex = make(map[vd.VPID]int)
	}
	return committed
}

// AbandonStaged discards every staged profile without committing it,
// for the burst pipeline's eviction race: when a shard is evicted
// between Stage and commit, the staged work is dropped and the burst
// retried against the shard's successor. The candidate grid is
// invalidated if it was rebuilt over since-abandoned nodes; it
// regrows lazily.
func (b *IncrementalBuilder) AbandonStaged() {
	if len(b.pending) == 0 {
		return
	}
	b.pending = b.pending[:0]
	b.pendingIndex = make(map[vd.VPID]int)
	b.boxes = b.boxes[:len(b.profiles)]
	b.wboxes = b.wboxes[:len(b.profiles)*linkWindows]
	if b.gridN > len(b.boxes) {
		b.grid = nil
		b.gridN = 0
	}
}

// AddBatch ingests profiles in order and returns how many joined the
// graph. It stops at the first hard error (wrong minute), which leaves
// the already-ingested prefix linked and usable.
func (b *IncrementalBuilder) AddBatch(ps []*vp.Profile) (added int, err error) {
	for _, p := range ps {
		ok, err := b.Add(p)
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// linkCandidates returns the node ids below limit that pass the
// two-way linkage test against the incoming profile. Proximity runs on
// the window-box slab (sampleNear); the Bloom side runs on the lazily
// derived digest caches (vp.MutualFilters): honest pairs resolve on
// first/last digests alone, so most profiles never pay the 60-digest
// SHA-256 derivation that used to dominate link-on-ingest. The
// same-minute and distinct-identifier guards of the standalone
// vp.MutualNeighborsLazy are already established here: Stage admits
// only the builder's minute and rejects duplicate identifiers before
// linking.
func (b *IncrementalBuilder) linkCandidates(p *vp.Profile, box geo.Rect, wb *[linkWindows]wbox, limit int) []int {
	var out []int
	rangeM := b.cfg.DSRCRange
	range2 := rangeM * rangeM
	test := func(cand int) {
		if boxDist2(box, b.boxes[cand]) > range2 {
			return
		}
		q := b.profileAt(cand)
		if !b.sampleNear(p, wb, q, cand, range2) {
			return
		}
		if vp.MutualFilters(p, q) {
			out = append(out, cand)
		}
	}
	if b.grid != nil {
		b.visitStamp++
		if len(b.visited) < b.gridN {
			b.visited = make([]uint64, limit)
		}
		cx0, cx1, cy0, cy1 := b.grid.Span(box, rangeM)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				for _, c32 := range b.grid.ItemsIn(cx, cy) {
					c := int(c32)
					if b.visited[c] == b.visitStamp {
						continue
					}
					b.visited[c] = b.visitStamp
					test(c)
				}
			}
		}
	}
	for c := b.gridN; c < limit; c++ {
		test(c)
	}
	return out
}

// sampleNear reports whether p and candidate q come within DSRC range
// at any shared second — exactly MutualNeighborsLazy's proximity loop,
// evaluated window-first: a window's samples are scanned only when the
// two window boxes are themselves within range, so far-but-box-adjacent
// candidates resolve on at most linkWindows contiguous box distances.
func (b *IncrementalBuilder) sampleNear(p *vp.Profile, wb *[linkWindows]wbox, q *vp.Profile, cand int, range2 float64) bool {
	n := min(len(p.VDs), len(q.VDs))
	base := cand * linkWindows
	for w := 0; w*linkWindowLen < n; w++ {
		if wb[w].dist2LowerBound(b.wboxes[base+w]) > range2+wboxSlack {
			continue
		}
		hi := min((w+1)*linkWindowLen, n)
		for i := w * linkWindowLen; i < hi; i++ {
			if p.VDs[i].L.Dist2(q.VDs[i].L) <= range2 {
				return true
			}
		}
	}
	return false
}

// maybeRebuildGrid rebuilds the candidate grid once the ungridded tail
// outgrows the gridded prefix (doubling schedule: amortized O(1)
// rebuild work per ingest). The grid may cover staged nodes; that is
// safe because the grid lives entirely on the staging side.
func (b *IncrementalBuilder) maybeRebuildGrid() {
	tail := len(b.boxes) - b.gridN
	if tail < gridRebuildMin || tail < b.gridN {
		return
	}
	b.grid = geo.NewCellGrid(b.boxes, b.cfg.DSRCRange, geo.DefaultMaxGridCells)
	b.gridN = len(b.boxes)
}

// ViewmapFor extracts the viewmap for an investigation site from the
// maintained graph, replicating Build's member selection exactly:
// select the trusted VP nearest the site, span a coverage area
// encompassing both (inflated by margin; margin <= 0 selects the DSRC
// range), admit the members whose trajectories enter the coverage, and
// take the induced subgraph over them. Because the two-way linkage
// test is pairwise and independent of coverage, the result's edge set
// is identical to core.Build over the same profiles — the equivalence
// property test in incremental_test.go holds the two together.
//
// The returned viewmap shares the member Profile pointers with the
// builder but owns its adjacency; it remains valid and immutable after
// further Adds. Staged-but-uncommitted profiles are invisible here.
func (b *IncrementalBuilder) ViewmapFor(site geo.Rect, margin float64) (*Viewmap, error) {
	if margin <= 0 {
		margin = b.cfg.DSRCRange
	}

	nearestTrusted := b.nearestTrustedTo(site.Center())
	if nearestTrusted < 0 {
		return nil, ErrNoTrusted
	}
	cover := b.coverFor(site, nearestTrusted, margin)

	vm := &Viewmap{
		Coverage: cover,
		Minute:   b.cfg.Minute,
		index:    make(map[vd.VPID]int),
	}
	// remap[old] is the member's node id in the extracted viewmap, -1
	// for non-members. Membership preserves insertion order, so the
	// remapping is monotone and remapped adjacency stays sorted.
	remap := make([]int, len(b.profiles))
	for i, p := range b.profiles {
		remap[i] = -1
		if !p.EntersArea(cover) {
			continue
		}
		remap[i] = len(vm.Profiles)
		vm.index[p.ID()] = len(vm.Profiles)
		vm.Profiles = append(vm.Profiles, p)
		if p.Trusted {
			vm.Trusted = append(vm.Trusted, remap[i])
		}
	}
	vm.Adj = make([][]int, len(vm.Profiles))
	for old, n := range remap {
		if n < 0 {
			continue
		}
		for _, nb := range b.adj[old] {
			if m := remap[nb]; m >= 0 {
				vm.Adj[n] = append(vm.Adj[n], m)
			}
		}
	}
	vm.ensureCSR()
	return vm, nil
}

// nearestTrustedTo returns the trusted node whose trajectory comes
// nearest the site center, -1 when the minute holds no trusted VP.
// Scanning trusted nodes in insertion order with a strict less keeps
// tie-breaking identical to Build's scan, so every extraction path
// (batch Build, ViewmapFor, SiteView) selects the same anchor.
func (b *IncrementalBuilder) nearestTrustedTo(siteCenter geo.Point) int {
	bestDist := -1.0
	nearestTrusted := -1
	for _, t := range b.trusted {
		p := b.profiles[t]
		for i := range p.VDs {
			if d := p.VDs[i].L.Dist(siteCenter); nearestTrusted < 0 || d < bestDist {
				bestDist = d
				nearestTrusted = t
			}
		}
	}
	return nearestTrusted
}

// coverFor spans the coverage area encompassing the site and the given
// trusted node's trajectory, inflated by margin — Build's coverage
// rule.
func (b *IncrementalBuilder) coverFor(site geo.Rect, trusted int, margin float64) geo.Rect {
	cover := site
	for i := range b.profiles[trusted].VDs {
		cover = expand(cover, b.profiles[trusted].VDs[i].L)
	}
	return cover.Inflate(margin)
}

// ErrNoTrusted is returned by Build and by ViewmapFor when the minute
// holds no trusted VP to seed trust propagation — one sentinel for
// both construction paths, so callers can treat them uniformly.
var ErrNoTrusted = errors.New("core: no trusted VP available for this minute")
