package sim

// Warm-vs-cold equivalence over the real HTTP surface: an honest
// population and then attack.Online flood waves land on an incremental
// system, and after every wave the per-VP verdict report fetched
// through the wire client must match, bit for bit, the
// rebuild-per-request baseline recomputed from the same stored
// profiles. This is the serving-layer counterpart of core's
// TestSiteViewEquivalenceProperty: it additionally covers the verdict
// cache, the content-epoch keying, and the interleaved batch ingest
// the online adversary hides in.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"viewmap/internal/attack"
	"viewmap/internal/client"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// rebuildVerify is the rebuild-per-request reference: core.Build over
// the minute's stored profiles, then a cold TrustRank from the uniform
// vector, computed from the same data the system serves.
func rebuildVerify(sys *server.System, site geo.Rect, minute int64) (*core.Viewmap, *core.Verdict, error) {
	vm, err := core.Build(sys.Store().Minute(minute), core.BuildConfig{
		Site: site, Minute: minute, RequirePlausible: true,
	})
	if err != nil {
		return nil, nil, err
	}
	verdict, err := vm.VerifySite(vm.InSite(site), core.TrustRankConfig{})
	return vm, verdict, err
}

// coldOutcome is the baseline side of the comparison: the wire
// report's fields recomputed with rebuildVerify, verdicts in ascending
// identifier order as the server sorts them.
func coldOutcome(t *testing.T, sys *server.System, site geo.Rect) *client.InvestigationOutcome {
	t.Helper()
	vm, verdict, err := rebuildVerify(sys, site, 0)
	if err != nil {
		t.Fatal(err)
	}
	inSite := vm.InSite(site)
	out := &client.InvestigationOutcome{
		Members: vm.Len(), Edges: vm.NumEdges(), InSite: len(inSite),
		Verdicts: make([]client.VPVerdict, vm.Len()),
	}
	hops := vm.HopsFromTrusted()
	for i, p := range vm.Profiles {
		out.Verdicts[i] = client.VPVerdict{ID: p.ID(), Trusted: p.Trusted, Hops: hops[i]}
	}
	for _, i := range inSite {
		out.Verdicts[i].InSite = true
	}
	for _, i := range verdict.Legitimate {
		out.Verdicts[i].Legitimate = true
	}
	sort.Slice(out.Verdicts, func(a, b int) bool {
		return bytes.Compare(out.Verdicts[a].ID[:], out.Verdicts[b].ID[:]) < 0
	})
	return out
}

func TestOnlineFloodWarmColdEquivalence(t *testing.T) {
	for _, seed := range []int64{7300, 7301} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			bank, err := benchBank()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := newOnlineHarness(bank, 32)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(warm.Close)

			profiles, site, err := attackArena(120, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.online.SeedPopulation(profiles); err != nil {
				t.Fatal(err)
			}

			compare := func(stage string) {
				t.Helper()
				rw, err := warm.api.InvestigateReport(attackToken,
					site.Min.X, site.Min.Y, site.Max.X, site.Max.Y, 0)
				if err != nil {
					t.Fatal(err)
				}
				rc := coldOutcome(t, warm.sys, site)
				if rw.Members != rc.Members || rw.Edges != rc.Edges || rw.InSite != rc.InSite {
					t.Fatalf("%s: warm viewmap %d/%d/%d diverges from cold %d/%d/%d (members/edges/inSite)",
						stage, rw.Members, rw.Edges, rw.InSite, rc.Members, rc.Edges, rc.InSite)
				}
				if fmt.Sprint(rw.Verdicts) != fmt.Sprint(rc.Verdicts) {
					t.Fatalf("%s: warm and cold per-VP verdicts diverge", stage)
				}
			}
			compare("seeded population")

			// Three flood waves into the already-verified minute; each
			// wave interleaves its fakes with a slice of late honest
			// traffic, the upload pattern attackers hide in. Owners
			// rotate so successive campaigns anchor different chains.
			late, _, err := attackArena(36, seed+5000)
			if err != nil {
				t.Fatal(err)
			}
			var lateAnon, owned []*vp.Profile
			for _, p := range late {
				if !p.Trusted {
					lateAnon = append(lateAnon, p)
				}
			}
			for _, p := range profiles {
				if !p.Trusted {
					owned = append(owned, p)
				}
			}
			for w := 0; w < 3; w++ {
				honest := lateAnon[w*len(lateAnon)/3 : (w+1)*len(lateAnon)/3]
				camp, err := attack.Launch(owned[w*2:w*2+2],
					attack.Config{Site: site, FakeCount: 24, Colluding: w%2 == 0,
						Minute: 0, Seed: seed + int64(w)*17})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := warm.online.Inject(camp, honest); err != nil {
					t.Fatal(err)
				}
				compare(fmt.Sprintf("flood wave %d", w))
			}
			// Equality alone would also hold if every wave recomputed
			// cold; the re-verifications must have warm-started.
			if warm.sys.TrustRankStats()["warm"].Verifications == 0 {
				t.Fatal("the server never warm-started TrustRank across the flood waves")
			}
		})
	}
}
