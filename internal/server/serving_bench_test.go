package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"viewmap/internal/attack"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// benchMinute builds a system over store and loads one 300-VP minute
// through the batched wire path; it returns the system and the
// investigation site.
func benchMinute(b *testing.B, store StoreConfig) (*System, geo.Rect) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 300, Area: area, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, area.Center())
	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(b), Store: store})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.UploadTrustedVP("tok", profiles[ti].Marshal()); err != nil {
		b.Fatal(err)
	}
	anon := make([]*vp.Profile, 0, len(profiles)-1)
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	if _, err := sys.UploadVPBatch(vp.MarshalBatch(anon)); err != nil {
		b.Fatal(err)
	}
	return sys, geo.RectAround(area.Center(), 300)
}

// benchInvestigate loads one warm minute (benchMinute) and times serve
// over it: with it calling Investigate, the incremental serving path
// (cache hit + cached verdict); with it rebuilding from the stored
// profiles, the rebuild-per-request baseline.
func benchInvestigate(b *testing.B, serve func(sys *System, site geo.Rect) error) {
	sys, site := benchMinute(b, StoreConfig{})
	if err := serve(sys, site); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(sys, site); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvestigateWarmCached is the incremental serving path end
// to end: viewmap cache hit plus verdict cache hit.
func BenchmarkInvestigateWarmCached(b *testing.B) {
	benchInvestigate(b, func(sys *System, site geo.Rect) error {
		_, err := sys.Investigate("tok", site, 0)
		return err
	})
}

// BenchmarkInvestigateEvictedCached is a repeat investigation of an
// evicted 300-VP minute whose report is cached: the verdict cache
// answers it without reloading the segment. It fails if a reload
// happens.
func BenchmarkInvestigateEvictedCached(b *testing.B) {
	sys, site := benchMinute(b, StoreConfig{segmentDir: b.TempDir(), retentionMinutes: 1})
	defer sys.Close()
	if _, err := sys.Investigate("tok", site, 0); err != nil {
		b.Fatal(err)
	}
	if err := sys.Store().evictShard(0); err != nil {
		b.Fatal(err)
	}
	reloads := sys.Store().RetentionStatsSnapshot().Reloads
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sys.Investigate("tok", site, 0); err != nil {
			b.Fatal(err)
		}
	}
	if n := sys.Store().RetentionStatsSnapshot().Reloads - reloads; n != 0 {
		b.Fatalf("the cached investigation reloaded the evicted minute %d times", n)
	}
}

// BenchmarkInvestigateRebuildPerRequest is the pre-incremental
// baseline: core.Build over the minute's stored profiles plus a cold
// TrustRank on every request.
func BenchmarkInvestigateRebuildPerRequest(b *testing.B) {
	benchInvestigate(b, func(sys *System, site geo.Rect) error {
		vm, err := core.Build(sys.Store().Minute(0), core.BuildConfig{
			Site: site, Minute: 0, RequirePlausible: true,
		})
		if err != nil {
			return err
		}
		_, err = vm.VerifySite(vm.InSite(site), core.TrustRankConfig{})
		return err
	})
}

// BenchmarkVerifySiteCachedViewmap runs the full TrustRank VerifySite
// every iteration over the cached, already-linked viewmap of a warm
// minute — the middle regime between the two above, isolating what
// link-on-ingest saves when the verdict itself cannot be reused.
func BenchmarkVerifySiteCachedViewmap(b *testing.B) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 300, Area: area, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	core.MarkTrustedNearest(profiles, area.Center())
	s := NewStore()
	if res := s.PutBatch(profiles); res.Stored != len(profiles) {
		b.Fatalf("stored %d of %d", res.Stored, len(profiles))
	}
	site := geo.RectAround(area.Center(), 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := s.ViewmapFor(site, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vm.VerifySite(vm.InSite(site), core.TrustRankConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReinvestigateAfterWave is the live re-verification loop: a
// resident 300-VP minute watched at 4 sites takes one 12-VP wave per
// iteration — 6 honest VPs and 6 colluding attack.Launch fakes — and
// the 4 sites are re-investigated after it, each a SiteView patch plus
// a warm-started TrustRank. Every 10 waves the minute starts over on a
// fresh system, untimed, so the per-wave cost does not grow with b.N.
func BenchmarkReinvestigateAfterWave(b *testing.B) {
	const waves, honest, fakes = 10, 6, 6
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 300 + waves*honest, Area: area, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	sites := make([]geo.Rect, 4)
	for i := range sites {
		c := geo.Pt(500+rng.Float64()*1000, 500+rng.Float64()*1000)
		core.MarkTrustedNearest(profiles, c)
		sites[i] = geo.RectAround(c, 300)
	}
	var trusted [][]byte
	var held, base []*vp.Profile
	for _, p := range profiles {
		switch {
		case p.Trusted:
			trusted = append(trusted, p.Marshal())
		case len(held) < waves*honest:
			held = append(held, p)
		default:
			base = append(base, p)
		}
	}
	// The attacker's own honest VP: the resident one starting nearest
	// the first site.
	c0 := sites[0].Center()
	owned := base[0]
	for _, p := range base {
		if p.InitialLocation().Dist(c0) < owned.InitialLocation().Dist(c0) {
			owned = p
		}
	}
	bodies := make([][]byte, waves)
	for i := range bodies {
		camp, err := attack.Launch([]*vp.Profile{owned}, attack.Config{
			Site: sites[0], FakeCount: fakes, Colluding: true, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = vp.MarshalBatch(append(slices.Clone(held[i*honest:(i+1)*honest]), camp.Fakes...))
	}
	baseBody := vp.MarshalBatch(base)
	investigate := func(sys *System) {
		for _, site := range sites {
			if _, err := sys.Investigate("tok", site, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	var sys *System
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%waves == 0 {
			// A fresh resident minute whose sites are already verified.
			b.StopTimer()
			if sys != nil {
				sys.Close()
			}
			if sys, err = NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(b)}); err != nil {
				b.Fatal(err)
			}
			for _, t := range trusted {
				if err := sys.UploadTrustedVP("tok", t); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sys.UploadVPBatch(baseBody); err != nil {
				b.Fatal(err)
			}
			investigate(sys)
			b.StartTimer()
		}
		res, err := sys.UploadVPBatch(bodies[i%waves])
		if err != nil {
			b.Fatal(err)
		}
		if res.Stored != honest+fakes {
			b.Fatalf("wave stored %d of %d VPs", res.Stored, honest+fakes)
		}
		investigate(sys)
	}
	b.StopTimer()
	sys.Close()
}

// BenchmarkSegmentReload times the cold-minute path: reloading an
// evicted minute of n VPs from its segment file (read, decode, restore
// the saved graph, install). Each iteration drops the clean shard again
// untimed; the segment is written once.
func BenchmarkSegmentReload(b *testing.B) {
	for _, n := range []int{300, 1000} {
		b.Run(fmt.Sprintf("vps=%d", n), func(b *testing.B) {
			area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
			profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: n, Area: area, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			core.MarkTrustedNearest(profiles, area.Center())
			s := NewStoreWith(StoreConfig{segmentDir: b.TempDir(), retentionMinutes: 1})
			defer s.Close()
			for _, p := range profiles {
				if err := s.Put(p); err != nil {
					b.Fatal(err)
				}
			}
			edges := s.shard(0).builder.NumEdges()
			if err := s.evictShard(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.reloadSegment(0); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.evictShard(0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(edges)/float64(n), "links/VP")
		})
	}
}

// BenchmarkDeliverDecode reads and decodes one evidence delivery
// body: 60 160x90 luminance frames, 1.15 MB of JSON once
// base64-encoded — the shape of a solicited minute in the evidence
// workload. canonical is the body clients send, which takes the
// one-pass decoder; escaped writes every '/' as '\/', which prices the
// encoding/json fallback.
func BenchmarkDeliverDecode(b *testing.B) {
	chunks := make([][]byte, 60)
	rng := rand.New(rand.NewSource(1))
	for i := range chunks {
		chunks[i] = make([]byte, 160*90)
		rng.Read(chunks[i])
	}
	body, err := json.Marshal(map[string]any{"id": strings.Repeat("ab", 32), "secret": strings.Repeat("cd", 32), "chunks": chunks})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"canonical", body},
		{"escaped", bytes.ReplaceAll(body, []byte("/"), []byte(`\/`))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for b.Loop() {
				req, err := decodeDeliver(httptest.NewRequest("POST", "/v1/evidence/deliver", bytes.NewReader(bc.body)))
				if err != nil {
					b.Fatal(err)
				}
				if len(req.Chunks) != len(chunks) {
					b.Fatalf("decoded %d chunks, want %d", len(req.Chunks), len(chunks))
				}
			}
		})
	}
}

// BenchmarkOpenDurable prices a restart. The data directory holds 8
// minutes of 300 VPs written through Close, and a WAL tail of three
// batches into the newest minute, uploaded after a Checkpoint and left
// behind by Abort. open times OpenDurable (snapshot, segments, replay
// of the tail) then Abort; open+touch also reads every minute, so the
// restores deferred to a minute's first touch are paid too.
func BenchmarkOpenDurable(b *testing.B) {
	const minutes = 8
	dir := b.TempDir()
	sys := openDurable(b, dir, 0)
	for m := int64(0); m < minutes; m++ {
		uploadMinute(b, m, 300, 800+m, sys)
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
	sys = openDurable(b, dir, 0)
	if err := sys.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		uploadMinute(b, minutes-1, 20, 900+i, sys)
	}
	sys.Abort()
	for _, touch := range []bool{false, true} {
		name := "open"
		if touch {
			name = "open+touch"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := openDurable(b, dir, 0)
				if touch {
					for m := int64(0); m < minutes; m++ {
						if len(sys.Store().Minute(m)) == 0 {
							b.Fatalf("minute %d is empty after the restart", m)
						}
					}
				}
				sys.Abort()
			}
		})
	}
}
