package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// TestSiteViewEquivalenceProperty is the acceptance property of the
// incremental verification path, in two layers. Structural: across
// arbitrary chunked ingest interleavings — including mid-stream
// colluder-cluster floods into an already-extracted site — a patched
// SiteView.Refresh must produce a viewmap identical, node for node and
// edge for edge, to a fresh ViewmapFor extraction. Behavioral: a
// warm-started VerifySiteFrom, resuming from the score vector the
// previous epoch converged to, must return bit-for-bit the same
// Legitimate set as a cold VerifySite over the same viewmap, at every
// epoch. The warm path's certificate logic (trustrank.go) may pick a
// different internal anchor but never a different verdict; this test
// is what holds it to that. The SiteView's kept in-site list must equal
// InSite's rescan of both viewmaps at every epoch; even seeds add a
// second trusted VP, far from the site, that arrives first, so the list
// is also checked across the rebuild once the nearer one lands.
func TestSiteViewEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is not short")
	}
	for si := 0; si < 10; si++ {
		si := si
		t.Run(fmt.Sprintf("seed=%d", si), func(t *testing.T) {
			t.Parallel()
			seed := int64(9100 + si)
			rng := rand.New(rand.NewSource(seed))
			side := 1500 + float64(si%4)*600
			rangeM := 150 + float64(si%3)*100
			area := geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
			profiles, err := SynthesizeLegitimate(SynthConfig{
				N: 60 + (si*37)%160, Area: area, Seed: seed, DSRCRange: rangeM,
			})
			if err != nil {
				t.Fatal(err)
			}
			near := profiles[MarkTrustedNearest(profiles, area.Center())]
			perm := make([]*vp.Profile, len(profiles))
			for i, j := range rng.Perm(len(profiles)) {
				perm[i] = profiles[j]
			}
			wantRebuild := si%2 == 0
			if wantRebuild {
				// The far trusted VP opens the stream and the nearer one
				// lands past the first chunk (at most 24 of >= 60).
				far := profiles[MarkTrustedNearest(profiles, area.Min)]
				perm = slices.DeleteFunc(perm, func(p *vp.Profile) bool { return p == far || p == near })
				perm = slices.Insert(perm, 0, far)
				perm = slices.Insert(perm, len(perm)/2, near)
			}
			// A colluder flood lands mid-stream: a stacked cluster inside
			// the site, linked to each other but (mostly) not to the
			// honest graph — the adversarial shape whose verdict the warm
			// path must keep reproducing exactly.
			flood := stackedCluster(t, area.Center(), 10+si%8, 0, rng)
			floodAt := 1 + rng.Intn(len(perm))

			b := NewIncrementalBuilder(IncrementalConfig{Minute: 0, DSRCRange: rangeM})
			site := geo.RectAround(area.Center(), 250)
			sv := NewSiteView(b, site, 0)

			var prev []float64
			var prevGen uint64
			var prevLen int
			checked, rebuilds := 0, 0
			for off := 0; off < len(perm); {
				size := 1 + rng.Intn(24)
				if off+size > len(perm) {
					size = len(perm) - off
				}
				if _, err := b.AddBatch(perm[off : off+size]); err != nil {
					t.Fatal(err)
				}
				off += size
				if off >= floodAt && flood != nil {
					if _, err := b.AddBatch(flood); err != nil {
						t.Fatal(err)
					}
					flood = nil
				}

				vm, _, gen, err := sv.Refresh()
				if err == ErrNoTrusted {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := b.ViewmapFor(site, 0)
				if err != nil {
					t.Fatal(err)
				}
				if vm.Len() != fresh.Len() {
					t.Fatalf("patched viewmap has %d members, fresh extraction %d", vm.Len(), fresh.Len())
				}
				for i := range fresh.Profiles {
					if vm.Profiles[i] != fresh.Profiles[i] {
						t.Fatalf("member order diverges at node %d", i)
					}
				}
				adjEqual(t, "patched vs fresh", vm.Adj, fresh.Adj)
				if fmt.Sprint(vm.Trusted) != fmt.Sprint(fresh.Trusted) {
					t.Fatalf("trusted sets diverge: %v vs %v", vm.Trusted, fresh.Trusted)
				}
				if vm.Coverage != fresh.Coverage {
					t.Fatalf("coverage diverges: %+v vs %+v", vm.Coverage, fresh.Coverage)
				}
				if got := sv.InSite(); !slices.Equal(got, vm.InSite(site)) || !slices.Equal(got, fresh.InSite(site)) {
					t.Fatalf("kept in-site list %v, patched viewmap rescans %v, fresh extraction %v",
						got, vm.InSite(site), fresh.InSite(site))
				}
				if prevGen != 0 && gen != prevGen {
					rebuilds++
				}

				// Warm-vs-cold verdict equality, with the server's
				// warm-start validity rule: same generation, bounded growth.
				if gen != prevGen || prevLen == 0 || vm.Len() > prevLen*8 {
					prev = nil
				}
				warm, stats, err := vm.VerifySiteFrom(sv.InSite(), prev, TrustRankConfig{})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := fresh.VerifySite(fresh.InSite(site), TrustRankConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(warm.Legitimate) != fmt.Sprint(cold.Legitimate) {
					t.Fatalf("warm (warm=%v, iters=%d) and cold verdicts diverge:\nwarm %v\ncold %v",
						stats.Warm, stats.Iterations, warm.Legitimate, cold.Legitimate)
				}
				if fmt.Sprint(warm.LegitimateIDs(vm)) != fmt.Sprint(cold.LegitimateIDs(fresh)) {
					t.Fatal("warm and cold legitimate identifier sets diverge")
				}
				prev, prevGen, prevLen = warm.Scores, gen, vm.Len()
				checked++
			}
			if checked < 2 {
				t.Fatalf("property only exercised %d epochs", checked)
			}
			if wantRebuild && rebuilds == 0 {
				t.Fatal("the nearer trusted VP never forced a rebuild")
			}
		})
	}
}

// TestSiteViewContentEpoch pins the verdict-cache identity contract:
// the content epoch advances exactly when the extraction changes —
// ingest outside the coverage area moves the builder epoch but not the
// content epoch — and replaying the same accepted profiles into a
// fresh builder reproduces the same content epoch, which is what lets
// verdicts cached before an eviction be reused after the segment
// reload reconstructs the shard.
func TestSiteViewContentEpoch(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(3000, 3000))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 80, Area: area, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	MarkTrustedNearest(profiles, geo.Pt(500, 500))
	site := geo.RectAround(geo.Pt(500, 500), 250)

	b := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
	sv := NewSiteView(b, site, 0)
	if _, err := b.AddBatch(profiles); err != nil {
		t.Fatal(err)
	}
	vm, ce1, _, err := sv.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if ce1 == 0 || vm.Len() == 0 {
		t.Fatalf("content epoch %d over %d members, want both positive", ce1, vm.Len())
	}

	// A profile far outside the site's coverage advances the builder
	// but must not move the content epoch.
	rng := rand.New(rand.NewSource(99))
	track := make([]geo.Point, 60)
	for i := range track {
		track[i] = geo.Pt(2900, float64(2850+i))
	}
	far, err := FabricateProfile(track, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := b.Epoch()
	if ok, err := b.Add(far); err != nil || !ok {
		t.Fatalf("far Add = (%v, %v), want accepted", ok, err)
	}
	if b.Epoch() == epochBefore {
		t.Fatal("builder epoch did not advance on accepted ingest")
	}
	if _, ce2, _, err := sv.Refresh(); err != nil {
		t.Fatal(err)
	} else if ce2 != ce1 {
		t.Fatalf("content epoch moved %d -> %d on out-of-cover ingest", ce1, ce2)
	}

	// Replay: the same accepted profiles into a fresh builder reproduce
	// the content epoch exactly.
	replay := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
	for i := 0; i < b.Len(); i++ {
		if ok, err := replay.Add(b.profiles[i]); err != nil || !ok {
			t.Fatalf("replay Add %d = (%v, %v)", i, ok, err)
		}
	}
	sv2 := NewSiteView(replay, site, 0)
	if _, ce3, _, err := sv2.Refresh(); err != nil {
		t.Fatal(err)
	} else if ce3 != ce1 {
		t.Fatalf("replayed content epoch %d, original %d", ce3, ce1)
	}
}

// TestSiteViewSnapshotImmutable holds a published viewmap to its
// immutability contract while later waves patch the SiteView that
// published it. TrustRank and the site BFS walk the snapshot's Adj rows
// in place, and those rows share backing arrays that the patches append
// to past the published lengths, so goroutines re-verifying the old
// snapshot during the waves must reproduce its verdict and scores bit
// for bit (run under -race by make race).
func TestSiteViewSnapshotImmutable(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1500, 1500))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 240, Area: area, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// One trusted VP in the preload keeps every wave a patch.
	MarkTrustedNearest(profiles[:120], area.Center())
	site := geo.RectAround(area.Center(), 250)
	b := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
	if _, err := b.AddBatch(profiles[:120]); err != nil {
		t.Fatal(err)
	}
	sv := NewSiteView(b, site, 0)
	snap, _, gen, err := sv.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	inSite := sv.InSite()
	want, err := snap.VerifySite(inSite, TrustRankConfig{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := snap.VerifySite(inSite, TrustRankConfig{})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Legitimate, want.Legitimate) || got.Anchor != want.Anchor ||
					!slices.EqualFunc(got.Scores, want.Scores, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
					t.Error("re-verifying the published snapshot changed its verdict or scores")
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	// Waves of honest VPs, with a colluding cluster in the site as the
	// third.
	var waves [][]*vp.Profile
	for off := 120; off < len(profiles); off += 12 {
		waves = append(waves, profiles[off:off+12])
	}
	cluster := stackedCluster(t, area.Center(), 8, 0, rand.New(rand.NewSource(41)))
	waves = slices.Insert(waves, 2, cluster)
	var latest *Viewmap
	for _, w := range waves {
		if _, err := b.AddBatch(w); err != nil {
			t.Error(err)
			break
		}
		var g uint64
		if latest, _, g, err = sv.Refresh(); err != nil || g != gen {
			t.Errorf("wave refresh: gen %d (want %d), err %v", g, gen, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	grew := false
	for m, row := range snap.Adj {
		grew = grew || len(latest.Adj[m]) > len(row)
	}
	if !grew {
		t.Fatal("no wave appended to a row the snapshot publishes")
	}
}

// TestIncrementalNumEdges holds the O(1) edge counter to a recount of
// the adjacency it summarizes.
func TestIncrementalNumEdges(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1500, 1500))
	profiles, err := SynthesizeLegitimate(SynthConfig{N: 120, Area: area, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b := NewIncrementalBuilder(IncrementalConfig{Minute: 0})
	for off := 0; off < len(profiles); off += 30 {
		end := off + 30
		if end > len(profiles) {
			end = len(profiles)
		}
		if _, err := b.AddBatch(profiles[off:end]); err != nil {
			t.Fatal(err)
		}
		recount := 0
		for _, row := range b.adj {
			recount += len(row)
		}
		if got := b.NumEdges(); got != recount/2 {
			t.Fatalf("NumEdges = %d, adjacency holds %d", got, recount/2)
		}
	}
	if b.NumEdges() == 0 {
		t.Fatal("synthesized population produced no viewlinks")
	}
}
