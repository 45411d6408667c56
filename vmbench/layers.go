package main

import (
	"fmt"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// layerCosts are the per-unit self times the layer pass measures by
// sending the run's exact inputs through each lower layer's public
// entry point, outside any timed window. Zero means the workload never
// reaches that layer.
type layerCosts struct {
	vpDecodeUS                 float64 // vp: SplitBatch + BatchArena.Unmarshal + Validate, per VP
	coreStageUS, coreCommitUS  float64 // core: IncrementalBuilder.Stage / CommitStaged, per VP
	edgesPerVP                 float64 // core: viewlinks per linked VP
	extractUS                  float64 // core: NewSiteView(...).Refresh, per site extraction
	trColdUS, trColdIters      float64 // core: VerifySiteFrom with no previous scores
	patchUS                    float64 // core: SiteView.Refresh after an ingest delta
	trWarmUS, trWarmIters      float64 // core: VerifySiteFrom warm-started
	warmRatio                  float64 // core: share of warm starts that certified
	replayMS, replayTamperedMS float64 // vd: Replay of an honest / tampered video
	signUS                     float64 // reward: Bank.SignBlinded, per unit
	redeemUS, redeemDoubleUS   float64 // reward: Bank.Redeem, first and double spend
	redactMS                   float64 // blur: RedactChunks, per video
}

// vpPass times the vp layer's batch decode path over wire bodies and
// returns the decoded profiles in order.
func vpPass(bodies [][]byte, lc *layerCosts) ([]*vp.Profile, error) {
	var out []*vp.Profile
	var spent time.Duration
	for _, body := range bodies {
		start := time.Now()
		recs, err := vp.SplitBatch(body, 1<<14)
		if err != nil {
			return nil, err
		}
		counts := make(map[int64]int)
		for _, rec := range recs {
			if m, ok := vp.PeekRecordMinute(rec); ok {
				counts[m]++
			}
		}
		arenas := make(map[int64]*vp.BatchArena, len(counts))
		batch := make([]*vp.Profile, 0, len(recs))
		for _, rec := range recs {
			m, ok := vp.PeekRecordMinute(rec)
			if !ok {
				return nil, fmt.Errorf("record without a minute")
			}
			a := arenas[m]
			if a == nil {
				a = vp.NewBatchArena(counts[m])
				arenas[m] = a
			}
			p, err := a.Unmarshal(rec)
			if err != nil {
				return nil, err
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			batch = append(batch, p)
		}
		spent += time.Since(start)
		out = append(out, batch...)
	}
	lc.vpDecodeUS = ratio(us(spent), float64(len(out)))
	return out, nil
}

// corePass links profiles minute by minute through the incremental
// builder, staging each and committing every chunk profiles, as the
// server's link worker does; it returns the builders by minute.
func corePass(profiles []*vp.Profile, chunk int, lc *layerCosts) map[int64]*core.IncrementalBuilder {
	builders := make(map[int64]*core.IncrementalBuilder)
	pending := make(map[int64]int)
	var stage, commit time.Duration
	n := 0
	flush := func(m int64) {
		start := time.Now()
		builders[m].CommitStaged()
		commit += time.Since(start)
		pending[m] = 0
	}
	for _, p := range profiles {
		m := p.Minute()
		b := builders[m]
		if b == nil {
			b = core.NewIncrementalBuilder(core.IncrementalConfig{Minute: m, RequirePlausible: true})
			builders[m] = b
		}
		start := time.Now()
		ok, err := b.Stage(p)
		stage += time.Since(start)
		if err != nil || !ok {
			continue
		}
		n++
		pending[m]++
		if pending[m] >= chunk {
			flush(m)
		}
	}
	edges, members := 0, 0
	for m, b := range builders {
		if pending[m] > 0 {
			flush(m)
		}
		edges += b.NumEdges()
		members += b.Len()
	}
	lc.coreStageUS = ratio(us(stage), float64(n))
	lc.coreCommitUS = ratio(us(commit), float64(n))
	lc.edgesPerVP = ratio(float64(edges), float64(members))
	return builders
}

// siteKey is one investigation target.
type siteKey struct {
	minute int64
	site   geo.Rect
}

// coldPass times a fresh site extraction and a cold verification for
// every key against the minute's linked builder.
func coldPass(builders map[int64]*core.IncrementalBuilder, keys []siteKey, lc *layerCosts) error {
	var extract, tr time.Duration
	var iters, n float64
	for _, k := range keys {
		b := builders[k.minute]
		if b == nil {
			return fmt.Errorf("no builder for minute %d", k.minute)
		}
		start := time.Now()
		vm, _, _, err := core.NewSiteView(b, k.site, 0).Refresh()
		extract += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		_, st, err := vm.VerifySiteFrom(vm.InSite(k.site), nil, core.TrustRankConfig{})
		tr += time.Since(start)
		if err != nil {
			return err
		}
		iters += float64(st.Iterations)
		n++
	}
	lc.extractUS = ratio(us(extract), n)
	lc.trColdUS = ratio(us(tr), n)
	lc.trColdIters = ratio(iters, n)
	return nil
}

// layerMetrics derives the per-layer metrics of the traced rounds: the
// server's counter deltas, the benchmark's spans and unit counts priced
// by the layer pass, and the runtime's allocation and pause figures.
// The <layer>.self_us_per_op metrics plus bench.unattributed_us_per_op
// add up to bench.op_us, the traced per-op time.
func layerMetrics(t, plain *runAcc, lc *layerCosts) map[string]metric {
	c, u, sp := t.ctr, t.rec.units, t.rec.spans
	ops := float64(t.rec.ops)
	stageUS := func(s string) float64 { return c["stage."+s+".ns"] / 1e3 }
	batchVPs := u["vp.batch"]
	linkUS := lc.coreStageUS + lc.coreCommitUS

	vpSelf := (u["vp.decode"] + u["vp.decode_reload"]) * lc.vpDecodeUS
	coreSelf := (u["core.link"]+u["core.link_reload"])*linkUS +
		u["core.extract"]*lc.extractUS + u["core.tr_cold"]*lc.trColdUS +
		u["core.patch"]*lc.patchUS + u["core.tr_warm"]*lc.trWarmUS
	vdSelf := 1e3 * (u["vd.replay"]*lc.replayMS + u["vd.replay_tampered"]*lc.replayTamperedMS)
	rewardSelf := u["reward.sign"]*lc.signUS + u["reward.redeem"]*lc.redeemUS + u["reward.redeem_double"]*lc.redeemDoubleUS
	blurSelf := 1e3 * u["blur.redact"] * lc.redactMS
	// The server's own share: its ingest stage spans less the vp and
	// core work they contain, plus the benchmark's spans around direct
	// server calls (minute-boundary maintenance, segment reloads) less
	// the decode and relink inside a reload.
	serverSelf := stageUS("decode") + stageUS("wal_append") + stageUS("ring_wait") + stageUS("link_stage") + stageUS("commit") -
		u["vp.decode"]*lc.vpDecodeUS - u["core.link"]*linkUS +
		us(sp["server.maint"]) + us(sp["server.reload"]) -
		u["vp.decode_reload"]*lc.vpDecodeUS - u["core.link_reload"]*linkUS
	opUS := ratio(us(t.rec.busy), ops)
	plainOpUS := ratio(us(plain.rec.busy), float64(plain.rec.ops))

	investigations := u["investigations"]
	verified := c["trust.cold.count"] + c["trust.warm.count"]
	hit := 0.0
	if investigations > 0 {
		hit = 1 - verified/investigations
	}
	late := t.rec.named["late"]
	var lateSum time.Duration
	for _, d := range late {
		lateSum += d
	}

	m := map[string]float64{
		"server.decode_us_per_vp":        ratio(stageUS("decode"), batchVPs),
		"server.ring_wait_us_per_vp":     ratio(stageUS("ring_wait"), batchVPs),
		"server.link_stage_us_per_vp":    ratio(stageUS("link_stage"), batchVPs),
		"server.commit_us_per_vp":        ratio(stageUS("commit"), batchVPs),
		"server.wal_append_us_per_batch": ratio(stageUS("wal_append"), c["stage.wal_append.count"]),
		"server.fsync_us":                ratio(c["fsync.ms"]*1e3, c["fsync.count"]),
		"server.batches_per_fsync":       ratio(c["walbatch.sum"], c["walbatch.count"]),
		"server.evict_ms_per_minute":     ratio(c["evict.ms"], c["evict.count"]),
		"server.checkpoint_ms":           ratio(c["checkpoint.ms"], c["checkpoint.count"]),
		"server.reload_ms":               ratio(ms(sp["server.reload"]), u["server.reloads"]),
		"server.verdict_hit_ratio":       hit,
		"server.shed_ratio":              ratio(c["shed"], c["admit"]+c["shed"]),
		"vp.decode_us_per_vp":            lc.vpDecodeUS,
		"core.stage_us_per_vp":           lc.coreStageUS,
		"core.commit_us_per_vp":          lc.coreCommitUS,
		"core.edges_per_vp":              lc.edgesPerVP,
		"core.extract_us_per_site":       lc.extractUS,
		"core.trustrank_cold_us":         lc.trColdUS,
		"core.trustrank_iters_cold":      lc.trColdIters,
		"core.patch_us_per_refresh":      lc.patchUS,
		"core.trustrank_warm_us":         lc.trWarmUS,
		"core.trustrank_iters_warm":      lc.trWarmIters,
		"core.warm_ratio":                lc.warmRatio,
		"vd.replay_ms_per_video":         lc.replayMS,
		"reward.sign_us_per_unit":        lc.signUS,
		"reward.redeem_us":               lc.redeemUS,
		"blur.redact_ms_per_video":       lc.redactMS,
		"evidence.deliver_accept_ratio":  ratio(c["evidence.accepted"], c["evidence.accepted"]+c["evidence.rejected"]),
		"runtime.allocs_per_op":          ratio(t.rt.allocs, ops),
		"runtime.alloc_bytes_per_op":     ratio(t.rt.allocBytes, ops),
		"runtime.gc_pause_p99_us":        t.rt.pauseQuantileUS(0.99),
		"server.self_us_per_op":          ratio(serverSelf, ops),
		"vp.self_us_per_op":              ratio(vpSelf, ops),
		"core.self_us_per_op":            ratio(coreSelf, ops),
		"vd.self_us_per_op":              ratio(vdSelf, ops),
		"reward.self_us_per_op":          ratio(rewardSelf, ops),
		"blur.self_us_per_op":            ratio(blurSelf, ops),
		"bench.op_us":                    opUS,
		"bench.unattributed_us_per_op":   opUS - ratio(serverSelf+vpSelf+coreSelf+vdSelf+rewardSelf+blurSelf, ops),
		"bench.trace_overhead_pct":       100 * ratio(opUS-plainOpUS, plainOpUS),
		"bench.generator_late_ms":        ratio(ms(lateSum), float64(len(late))),
	}
	out := make(map[string]metric, len(m))
	for name, v := range m {
		out[name] = metric{v, layerUnits[name]}
	}
	return out
}

// layerUnits gives each per-layer metric its unit; BENCHMARK.json
// declares the same names and units.
var layerUnits = map[string]string{
	"server.decode_us_per_vp":        "us",
	"server.ring_wait_us_per_vp":     "us",
	"server.link_stage_us_per_vp":    "us",
	"server.commit_us_per_vp":        "us",
	"server.wal_append_us_per_batch": "us",
	"server.fsync_us":                "us",
	"server.batches_per_fsync":       "count",
	"server.evict_ms_per_minute":     "ms",
	"server.checkpoint_ms":           "ms",
	"server.reload_ms":               "ms",
	"server.verdict_hit_ratio":       "ratio",
	"server.shed_ratio":              "ratio",
	"vp.decode_us_per_vp":            "us",
	"core.stage_us_per_vp":           "us",
	"core.commit_us_per_vp":          "us",
	"core.edges_per_vp":              "count",
	"core.extract_us_per_site":       "us",
	"core.trustrank_cold_us":         "us",
	"core.trustrank_iters_cold":      "count",
	"core.patch_us_per_refresh":      "us",
	"core.trustrank_warm_us":         "us",
	"core.trustrank_iters_warm":      "count",
	"core.warm_ratio":                "ratio",
	"vd.replay_ms_per_video":         "ms",
	"reward.sign_us_per_unit":        "us",
	"reward.redeem_us":               "us",
	"blur.redact_ms_per_video":       "ms",
	"evidence.deliver_accept_ratio":  "ratio",
	"runtime.allocs_per_op":          "count",
	"runtime.alloc_bytes_per_op":     "B",
	"runtime.gc_pause_p99_us":        "us",
	"server.self_us_per_op":          "us",
	"vp.self_us_per_op":              "us",
	"core.self_us_per_op":            "us",
	"vd.self_us_per_op":              "us",
	"reward.self_us_per_op":          "us",
	"blur.self_us_per_op":            "us",
	"bench.op_us":                    "us",
	"bench.unattributed_us_per_op":   "us",
	"bench.trace_overhead_pct":       "%",
	"bench.generator_late_ms":        "ms",
}
