package core

import (
	"sync/atomic"

	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// A SiteView keeps one investigation site's induced subgraph patched
// under the builder's edge insertions instead of re-extracting it from
// scratch on every epoch advance. ViewmapFor's extraction is
// O(members + edges) per call; under a flood into a verified minute
// that cost is paid again on every re-investigation even though almost
// all of the subgraph is unchanged. The SiteView exploits two
// structural facts about the incremental builder:
//
//   - Membership is append-only while the coverage area holds still.
//     Coverage depends only on the site and the nearest trusted VP's
//     (immutable) trajectory, so as long as the nearest trusted node is
//     unchanged, previously admitted members stay admitted and new
//     builder nodes can only append.
//   - New edges are only ever incident to newly committed nodes
//     (CommitStaged resolves a node's viewlinks at staging time, against
//     smaller ids only), so patching the induced adjacency is a scan of
//     the new builder suffix.
//
// When the nearest trusted node does change — or on first use — the
// SiteView falls back to a full re-extraction that replicates
// ViewmapFor exactly; the equivalence property test in siteview_test.go
// holds Refresh and ViewmapFor together across randomized ingest
// interleavings.
//
// The SiteView also keeps the site's in-site node list (InSite), so a
// re-verification tests only the new members against the site instead
// of rescanning every member's trajectory.
//
// A SiteView is not safe for concurrent use; the server serializes
// Refresh under its shard lock. The *Viewmap values Refresh returns are
// immutable snapshots safe to read concurrently with later patches:
// each content change publishes a fresh Viewmap whose outer adjacency
// slice is copied, while the shared arrays are only ever appended to
// beyond the published lengths (TestSiteViewSnapshotImmutable).
type SiteView struct {
	b      *IncrementalBuilder
	site   geo.Rect
	margin float64

	nearestTrusted int
	cover          geo.Rect
	upto           int    // builder profiles consumed so far
	epoch          uint64 // builder epoch at last Refresh
	contentEpoch   uint64 // builder epoch that last changed the extraction
	gen            uint64

	remap   []int
	members []*vp.Profile
	trusted []int
	inSite  []int // members whose trajectories enter site, ascending
	adj     [][]int
	vm      *Viewmap
}

// siteViewGen numbers full extractions process-wide. A SiteView's
// generation changes exactly when its node-id space is re-derived from
// scratch, so two Refresh results with equal generations are guaranteed
// to share an id-prefix: a score vector computed against the earlier
// one is a valid warm start for the later one.
var siteViewGen atomic.Uint64

// NewSiteView creates a patched extraction of the builder's graph for
// one site. margin <= 0 selects the builder's DSRC range, matching
// ViewmapFor.
func NewSiteView(b *IncrementalBuilder, site geo.Rect, margin float64) *SiteView {
	if margin <= 0 {
		margin = b.cfg.DSRCRange
	}
	return &SiteView{b: b, site: site, margin: margin, nearestTrusted: -1}
}

// Refresh brings the extraction up to date with the builder and returns
// the current viewmap together with its content epoch and generation.
//
// The content epoch is the builder epoch at which the newest member
// committed: a pure function of the builder's graph, so it reproduces
// bit-for-bit when an evicted minute is replayed from its segment, and
// it only advances when the extraction actually changes (ingest outside
// the coverage area advances the builder epoch but not the content
// epoch). Callers key verdict caches by it. The generation (see
// siteViewGen) tells warm-start users whether a previous score vector
// still indexes a prefix of this viewmap's nodes.
//
// Refresh must be serialized with CommitStaged and with itself (the
// server holds its shard lock); the returned viewmap may be read
// concurrently with anything.
func (sv *SiteView) Refresh() (*Viewmap, uint64, uint64, error) {
	b := sv.b
	if sv.vm != nil && b.epoch == sv.epoch {
		return sv.vm, sv.contentEpoch, sv.gen, nil
	}
	nt := b.nearestTrustedTo(sv.site.Center())
	if nt < 0 {
		return nil, 0, 0, ErrNoTrusted
	}
	if sv.vm == nil || nt != sv.nearestTrusted {
		return sv.rebuild(nt)
	}

	// Patch: coverage held still, so prior members are stable and the
	// new builder suffix can only append. Two passes mirror ViewmapFor:
	// first assign membership (the remapping stays monotone), then
	// build the new members' adjacency rows — a row may reference a
	// burst-mate with a larger builder id, so membership must be fully
	// assigned first. Edges from old members to new ones are appended in
	// ascending new-id order, preserving each row's sort.
	old := sv.upto
	changed := false
	for i := old; i < len(b.profiles); i++ {
		p := b.profiles[i]
		if !p.EntersArea(sv.cover) {
			sv.remap = append(sv.remap, -1)
			continue
		}
		sv.remap = append(sv.remap, len(sv.members))
		sv.admit(p)
		sv.contentEpoch = uint64(i) + 1
		changed = true
	}
	for i := old; i < len(b.profiles); i++ {
		n := sv.remap[i]
		if n < 0 {
			continue
		}
		var row []int
		for _, nb := range b.adj[i] {
			if m := sv.remap[nb]; m >= 0 {
				row = append(row, m)
				if nb < old {
					sv.adj[m] = append(sv.adj[m], n)
				}
			}
		}
		sv.adj = append(sv.adj, row)
	}
	sv.upto = len(b.profiles)
	sv.epoch = b.epoch
	if changed {
		sv.publish()
	}
	return sv.vm, sv.contentEpoch, sv.gen, nil
}

// rebuild re-extracts from scratch — ViewmapFor's loops verbatim, into
// the SiteView's own state — and starts a new generation.
func (sv *SiteView) rebuild(nt int) (*Viewmap, uint64, uint64, error) {
	b := sv.b
	sv.nearestTrusted = nt
	sv.cover = b.coverFor(sv.site, nt, sv.margin)

	// Fresh allocations throughout: previously published viewmaps alias
	// the old backing arrays and must keep reading them unchanged.
	sv.remap = make([]int, len(b.profiles))
	sv.members = nil
	sv.trusted = nil
	sv.inSite = nil
	for i, p := range b.profiles {
		sv.remap[i] = -1
		if !p.EntersArea(sv.cover) {
			continue
		}
		sv.remap[i] = len(sv.members)
		sv.admit(p)
		sv.contentEpoch = uint64(i) + 1
	}
	sv.adj = make([][]int, 0, len(sv.members))
	for old, n := range sv.remap {
		if n < 0 {
			continue
		}
		var row []int
		for _, nb := range b.adj[old] {
			if m := sv.remap[nb]; m >= 0 {
				row = append(row, m)
			}
		}
		sv.adj = append(sv.adj, row)
	}
	sv.upto = len(b.profiles)
	sv.epoch = b.epoch
	sv.gen = siteViewGen.Add(1)
	sv.publish()
	return sv.vm, sv.contentEpoch, sv.gen, nil
}

// admit appends a coverage member as the next node id. The site lies
// inside the coverage, so every in-site VP is a member, and testing
// members alone, in node order, yields exactly Viewmap.InSite's list.
func (sv *SiteView) admit(p *vp.Profile) {
	n := len(sv.members)
	sv.members = append(sv.members, p)
	if p.Trusted {
		sv.trusted = append(sv.trusted, n)
	}
	if p.EntersArea(sv.site) {
		sv.inSite = append(sv.inSite, n)
	}
}

// InSite returns the node ids of the last Refresh's viewmap whose
// trajectories enter the site: that viewmap's InSite(site), kept as the
// SiteView patches instead of rescanned. Call it where Refresh may be
// called; the returned slice is immutable and may be read concurrently
// with later patches.
func (sv *SiteView) InSite() []int {
	n := len(sv.inSite)
	return sv.inSite[:n:n]
}

// publish snapshots the current extraction as an immutable Viewmap.
// Only the outer adjacency slice is copied; the member, trusted and
// row arrays are shared with future patches, which only append past
// the lengths recorded here.
func (sv *SiteView) publish() {
	adj := make([][]int, len(sv.adj))
	copy(adj, sv.adj)
	sv.vm = &Viewmap{
		Profiles: sv.members,
		Adj:      adj,
		Trusted:  sv.trusted,
		Coverage: sv.cover,
		Minute:   sv.b.cfg.Minute,
	}
}
