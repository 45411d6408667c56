package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"time"

	"viewmap/internal/attack"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// live mixes writes and reads in the same minute. One uploader sends
// waves on a fixed schedule (open loop, livePeriod apart) into the
// current hot minute; a wave is held-back honest VPs plus a colluding
// attack.Launch fake chain. After each acked wave one investigator
// re-investigates the minute's sites. Each hot minute takes a fixed
// number of waves, then the stream moves on. Every hot minute stays
// resident (no retention horizon, no checkpoint inside the window), so
// the tail is ingest and investigation contending for one shard lock
// and two cores, not spills. An op is one wave: its batch plus its
// re-investigations, timed from the wave's due time.
type live struct {
	minutes int
	waves   int
	preload [][]preloadBody // by hot minute
	wave    [][]byte        // batch body per wave, in schedule order
	waveVPs []int
	sites   [][]geo.Rect // by hot minute
	bodies  [][][]byte   // investigate request body by minute and site
	// last holds the round's final report per key, for check; verified
	// holds the first round's, checked against a cold recompute.
	last, verified map[siteKey]report
}

const (
	livePerMinute = 300
	liveSites     = 4
	liveHeldBack  = 6
	liveFakes     = 6
	// livePeriod is the wave schedule: about half of the rate at which
	// one uploader and one investigator keep up on a 2-core machine.
	livePeriod = 5 * time.Millisecond
)

func newLive(cfg benchConfig) (*live, error) {
	w := &live{minutes: 8, waves: 10}
	if cfg.tiny {
		w.minutes, w.waves = 2, 3
	}
	area := streamArea()
	rng := rand.New(rand.NewSource(cfg.seed))
	for m := 0; m < w.minutes; m++ {
		ps, err := synthMinute(livePerMinute, area, int64(m), cfg.seed*1_000_211+int64(m))
		if err != nil {
			return nil, err
		}
		var sites []geo.Rect
		var bodies [][]byte
		for s := 0; s < liveSites; s++ {
			c := geo.Pt(500+rng.Float64()*1000, 500+rng.Float64()*1000)
			core.MarkTrustedNearest(ps, c)
			site := geo.RectAround(c, investigateSiteHalf)
			sites = append(sites, site)
			bodies = append(bodies, investigateBody(siteKey{minute: int64(m), site: site}))
		}
		w.sites = append(w.sites, sites)
		w.bodies = append(w.bodies, bodies)
		// Hold back honest VPs for the waves; the rest is preloaded.
		var held, base []*vp.Profile
		for _, i := range rng.Perm(len(ps)) {
			if !ps[i].Trusted && len(held) < w.waves*liveHeldBack {
				held = append(held, ps[i])
			} else {
				base = append(base, ps[i])
			}
		}
		owned := nearestUntrusted(base, sites[0].Center())
		w.preload = append(w.preload, preloadBodies(base))
		for i := 0; i < w.waves; i++ {
			camp, err := attack.Launch([]*vp.Profile{owned}, attack.Config{
				Site: sites[0], FakeCount: liveFakes, Colluding: true,
				Minute: int64(m), Seed: cfg.seed*7_001 + int64(m*100+i),
			})
			if err != nil {
				return nil, err
			}
			batch := append(append([]*vp.Profile(nil), held[i*liveHeldBack:(i+1)*liveHeldBack]...), camp.Fakes...)
			w.wave = append(w.wave, vp.MarshalBatch(batch))
			w.waveVPs = append(w.waveVPs, len(batch))
		}
	}
	return w, nil
}

// nearestUntrusted returns the untrusted profile passing closest to p:
// the attacker's own honest VP anchoring its fake chains.
func nearestUntrusted(ps []*vp.Profile, p geo.Point) *vp.Profile {
	var best *vp.Profile
	bestD := 0.0
	for _, q := range ps {
		if q.Trusted {
			continue
		}
		for _, d := range q.VDs {
			if dd := d.L.Dist(p); best == nil || dd < bestD {
				best, bestD = q, dd
			}
		}
	}
	return best
}

func (w *live) setup(env *roundEnv) (*server.System, error) {
	sys, err := openDurable(env, 0)
	if err != nil {
		return nil, err
	}
	for m, bodies := range w.preload {
		if err := upload(sys, bodies); err != nil {
			return nil, err
		}
		// The authority is already watching the hot minute when the
		// waves arrive: each site's first (cold) verification is set-up.
		for _, site := range w.sites[m] {
			if _, err := sys.Investigate(authToken, site, int64(m)); err != nil {
				return nil, err
			}
		}
	}
	if err := sys.Checkpoint(); err != nil {
		return nil, err
	}
	return sys, nil
}

// liveAck is one acknowledged wave handed to the investigator.
type liveAck struct {
	wave int
	due  time.Time
}

func (w *live) exec(env *roundEnv, sys *server.System, rec *recorder) error {
	h := server.Handler(sys)
	total := len(w.wave)
	acks := make(chan liveAck, total) // one slot per wave: the uploader never blocks
	start := time.Now()
	go func() {
		defer close(acks)
		for i := 0; i < total; i++ {
			due := start.Add(time.Duration(i) * livePeriod)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			rec.note("late", sent.Sub(due))
			code, body := call(h, "POST", "/v1/vp/batch", w.wave[i], nil)
			ack := time.Now()
			rec.sample("upload_call", ack.Sub(sent))
			rec.note("upload", ack.Sub(due))
			var res struct{ Stored, Duplicates, Rejected int }
			if code == http.StatusOK {
				if err := json.Unmarshal(body, &res); err != nil {
					rec.fail("wave %d reply: %v", i, err)
				}
			} else {
				rec.fail("wave %d: status %d", i, code)
			}
			if res.Stored != w.waveVPs[i] {
				rec.fail("wave %d stored %d of %d (%d duplicates, %d rejected)", i, res.Stored, w.waveVPs[i], res.Duplicates, res.Rejected)
			}
			rec.unit("vp.batch", float64(res.Stored))
			rec.unit("vp.decode", float64(w.waveVPs[i]))
			rec.unit("core.link", float64(res.Stored))
			acks <- liveAck{wave: i, due: due}
		}
	}()

	var tr *investigationTracer
	if rec.traced {
		tr = newInvestigationTracer(sys, nil)
		for m, sites := range w.sites {
			tr.extracted[int64(m)] = make(map[geo.Rect]bool)
			for _, site := range sites {
				tr.extracted[int64(m)][site] = true // primed in set-up
			}
		}
	}
	last := make(map[siteKey]report)
	for a := range acks {
		m := a.wave / w.waves
		failed := 0
		for s, body := range w.bodies[m] {
			k := siteKey{minute: int64(m), site: w.sites[m][s]}
			if tr != nil {
				if tr.extracted[k.minute][k.site] {
					rec.unit("core.patch", 1)
				}
				tr.before(k, rec)
			}
			t := time.Now()
			code, reply := call(h, "POST", "/v1/investigate", body, authority)
			rec.sample("investigate", time.Since(t))
			if tr != nil {
				tr.after(rec)
			}
			rec.unit("investigations", 1)
			if code != http.StatusOK {
				failed = 1
				rec.fail("investigate minute %d: status %d: %s", m, code, reply)
				continue
			}
			if a.wave%w.waves == w.waves-1 {
				var got report
				if err := json.Unmarshal(reply, &got); err != nil {
					rec.fail("investigate reply: %v", err)
				}
				last[k] = got
			}
		}
		rec.attempt(1, failed)
		if failed == 0 {
			rec.op(1, time.Since(a.due))
		}
	}
	w.last = last
	return nil
}

// check compares each hot minute's final report with a cold recompute
// (core.Build plus VerifySite over the stored minute). Every round
// replays the same inputs, so the recompute runs on the first round
// and every coldCheckEvery-th after it; the rounds between must
// reproduce the verified reports exactly.
func (w *live) check(env *roundEnv, sys *server.System, rec *recorder) error {
	const coldCheckEvery = 8
	if len(w.last) != w.minutes*liveSites {
		rec.fail("%d final reports, want %d", len(w.last), w.minutes*liveSites)
	}
	if w.verified == nil || env.round%coldCheckEvery == 0 {
		for k, got := range w.last {
			want, err := expectedReport(sys.Store().Minute(k.minute), k)
			if err != nil {
				return err
			}
			if !got.equal(want) {
				rec.fail("minute %d site %v: final report %v, cold recompute %v", k.minute, k.site, got, want)
			}
		}
		if w.verified == nil {
			w.verified = w.last
		}
	}
	for k, got := range w.last {
		if !got.equal(w.verified[k]) {
			rec.fail("minute %d site %v: final report %v differs from the verified %v", k.minute, k.site, got, w.verified[k])
		}
	}
	return nil
}

func (w *live) residentVPs(sys *server.System) int { return residentVPs(sys) }

func (w *live) layerPass(lc *layerCosts) error {
	wave, err := vpPass(w.wave, lc)
	if err != nil {
		return err
	}
	var stage, commit, patch, warm, extract, cold time.Duration
	var staged, patches, warmRuns, warmIters, certified, coldIters float64
	extracts, next, edges, members := 0, 0, 0, 0
	for m, bodies := range w.preload {
		base, err := decodePreload([][]preloadBody{bodies}, &layerCosts{})
		if err != nil {
			return err
		}
		b := core.NewIncrementalBuilder(core.IncrementalConfig{Minute: int64(m), RequirePlausible: true})
		if _, err := b.AddBatch(base); err != nil {
			return err
		}
		views := make([]*core.SiteView, len(w.sites[m]))
		prev := make([]*core.Verdict, len(w.sites[m]))
		gens := make([]uint64, len(w.sites[m]))
		for s, site := range w.sites[m] {
			t := time.Now()
			views[s] = core.NewSiteView(b, site, 0)
			vm, _, gen, err := views[s].Refresh()
			extract += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			var st core.VerifyStats
			if prev[s], st, err = vm.VerifySiteFrom(vm.InSite(site), nil, core.TrustRankConfig{}); err != nil {
				return err
			}
			cold += time.Since(t)
			coldIters += float64(st.Iterations)
			extracts++
			gens[s] = gen
		}
		for i := 0; i < w.waves; i++ {
			ps := wave[next : next+w.waveVPs[m*w.waves+i]]
			next += len(ps)
			t := time.Now()
			for _, p := range ps {
				if _, err := b.Stage(p); err != nil {
					return err
				}
			}
			stage += time.Since(t)
			t = time.Now()
			b.CommitStaged()
			commit += time.Since(t)
			staged += float64(len(ps))
			for s, site := range w.sites[m] {
				t = time.Now()
				vm, _, gen, err := views[s].Refresh()
				patch += time.Since(t)
				patches++
				if err != nil {
					return err
				}
				var from []float64
				if gen == gens[s] && vm.Len() <= len(prev[s].Scores)*8 {
					from = prev[s].Scores
				}
				t = time.Now()
				v, st, err := vm.VerifySiteFrom(vm.InSite(site), from, core.TrustRankConfig{})
				warm += time.Since(t)
				if err != nil {
					return err
				}
				warmRuns++
				warmIters += float64(st.Iterations)
				if st.Warm {
					certified++
				}
				prev[s], gens[s] = v, gen
			}
		}
		edges += b.NumEdges()
		members += b.Len()
	}
	lc.edgesPerVP = ratio(float64(edges), float64(members))
	lc.coreStageUS = ratio(us(stage), staged)
	lc.coreCommitUS = ratio(us(commit), staged)
	lc.patchUS = ratio(us(patch), patches)
	lc.trWarmUS = ratio(us(warm), warmRuns)
	lc.trWarmIters = ratio(warmIters, warmRuns)
	lc.warmRatio = ratio(certified, warmRuns)
	lc.extractUS = ratio(us(extract), float64(extracts))
	lc.trColdUS = ratio(us(cold), float64(extracts))
	lc.trColdIters = ratio(coldIters, float64(extracts))
	return nil
}
