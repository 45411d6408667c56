package sim

// This file benchmarks post-flood re-verification: the workload where
// an authority keeps a site under investigation while attack floods
// keep landing in the same minute. Every wave invalidates the minute's
// verdict, so each re-investigation must re-run TrustRank — the
// question is from where. The incremental system patches the cached
// site view and warm-starts the power iteration from the previous
// epoch's converged score vector; the cold baseline (rebuildVerify)
// rebuilds the viewmap from the stored profiles with core.Build and
// iterates from the uniform vector every time. Both answers are
// asserted identical wave by wave before any timing is reported, so
// the speedup is over a proven-equal computation.

import (
	"fmt"
	"math"
	"time"

	"viewmap/internal/attack"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// ReverifyConfig parameterizes the re-verification benchmark.
type ReverifyConfig struct {
	// Vehicles is the honest population size; zero selects 220.
	Vehicles int
	// Waves is the number of flood waves, each followed by one timed
	// re-investigation per system; zero selects 4.
	Waves int
	// FakesPerWave is the colluding fake-VP volume per wave; zero
	// selects 40.
	FakesPerWave int
	// BatchSize is the upload batch size; zero selects 64.
	BatchSize int
	// Seed drives the synthetic trajectories and fake placement.
	Seed int64
}

func (c ReverifyConfig) withDefaults() ReverifyConfig {
	if c.Vehicles <= 0 {
		c.Vehicles = 220
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.FakesPerWave <= 0 {
		c.FakesPerWave = 40
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// ReverifyResult reports one re-verification benchmark run.
type ReverifyResult struct {
	// Waves is the number of flood waves timed.
	Waves int
	// WarmLatency and ColdLatency are the mean post-wave latencies of
	// the incremental system's investigation and of the
	// rebuild-per-request baseline.
	WarmLatency, ColdLatency time.Duration
	// Speedup is ColdLatency / WarmLatency.
	Speedup float64
	// WarmRuns and ColdRuns are the incremental system's TrustRank
	// verification counts by restart mode, from the server's own
	// histograms; a healthy run is warm-dominated after the first
	// investigation.
	WarmRuns, ColdRuns uint64
	// WarmP50Iters and ColdP50Iters are the median power-iteration
	// counts of the two modes on the incremental system — the warm
	// path's whole advantage is this gap.
	WarmP50Iters, ColdP50Iters uint64
	// Members and Legitimate describe the final investigated viewmap.
	Members, Legitimate int
}

// Reverify runs the post-flood re-verification benchmark: an honest
// population and then attack waves land in the system, and after every
// wave the system re-investigates the same site while the baseline
// recomputes it from the stored profiles. Reports must match bit for
// bit; only then are the latencies compared.
func Reverify(cfg ReverifyConfig) (*ReverifyResult, error) {
	cfg = cfg.withDefaults()
	bank, err := benchBank()
	if err != nil {
		return nil, err
	}
	warm, err := server.NewSystem(server.Config{AuthorityToken: "bench", Bank: bank})
	if err != nil {
		return nil, err
	}

	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	site := geo.RectAround(area.Center(), 300)
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{
		N: cfg.Vehicles, Area: area, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ti := core.MarkTrustedNearest(profiles, area.Center())
	upload := func(ps []*vp.Profile) error {
		for off := 0; off < len(ps); off += cfg.BatchSize {
			end := min(off+cfg.BatchSize, len(ps))
			if _, err := warm.UploadVPBatch(vp.MarshalBatch(ps[off:end])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm.UploadTrustedVP("bench", profiles[ti].Marshal()); err != nil {
		return nil, err
	}
	anon := make([]*vp.Profile, 0, len(profiles)-1)
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	if err := upload(anon); err != nil {
		return nil, err
	}

	// Prime: the first investigation extracts the site view and runs
	// the one unavoidable cold verification.
	check := func(wave int) (*server.InvestigationReport, error) {
		rw, err := warm.Investigate("bench", site, 0)
		if err != nil {
			return nil, err
		}
		vm, verdict, err := rebuildVerify(warm, site, 0)
		if err != nil {
			return nil, err
		}
		if rc := verdict.LegitimateIDs(vm); rw.Members != vm.Len() || rw.Edges != vm.NumEdges() ||
			fmt.Sprint(rw.Legitimate) != fmt.Sprint(rc) {
			return nil, fmt.Errorf("sim: reverify wave %d: warm report (%d members, %d edges, %d legitimate) diverges from cold (%d, %d, %d)",
				wave, rw.Members, rw.Edges, len(rw.Legitimate), vm.Len(), vm.NumEdges(), len(rc))
		}
		return rw, nil
	}
	if _, err := check(0); err != nil {
		return nil, err
	}

	// The attacker owns the honest profile nearest the site, the
	// worst case for chain anchoring; each wave floods a fresh batch
	// of colluding fakes into the already-verified minute.
	owned := nearestProfile(anon, site.Center())
	res := &ReverifyResult{Waves: cfg.Waves}
	var warmTotal, coldTotal time.Duration
	var last *server.InvestigationReport
	for w := 0; w < cfg.Waves; w++ {
		camp, err := attack.Launch([]*vp.Profile{owned}, attack.Config{
			Site: site, FakeCount: cfg.FakesPerWave, Colluding: true,
			Minute: 0, Seed: cfg.Seed + int64(w)*101,
		})
		if err != nil {
			return nil, err
		}
		if err := upload(camp.Fakes); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := warm.Investigate("bench", site, 0); err != nil {
			return nil, err
		}
		warmTotal += time.Since(start)
		start = time.Now()
		if _, _, err := rebuildVerify(warm, site, 0); err != nil {
			return nil, err
		}
		coldTotal += time.Since(start)
		// A repeated pass through the equality gate: the warm side
		// answers from its verdict cache, the cold side recomputes,
		// and both must still agree bit for bit.
		if last, err = check(w + 1); err != nil {
			return nil, err
		}
	}

	res.WarmLatency = warmTotal / time.Duration(cfg.Waves)
	res.ColdLatency = coldTotal / time.Duration(cfg.Waves)
	if res.WarmLatency > 0 {
		res.Speedup = float64(res.ColdLatency) / float64(res.WarmLatency)
	}
	stats := warm.TrustRankStats()
	res.WarmRuns, res.WarmP50Iters = stats["warm"].Verifications, stats["warm"].P50Iterations
	res.ColdRuns, res.ColdP50Iters = stats["cold"].Verifications, stats["cold"].P50Iterations
	res.Members, res.Legitimate = last.Members, len(last.Legitimate)
	return res, nil
}

// nearestProfile returns the profile whose trajectory comes closest
// to p, without marking anything trusted.
func nearestProfile(profiles []*vp.Profile, p geo.Point) *vp.Profile {
	var best *vp.Profile
	bestD := math.Inf(1)
	for _, prof := range profiles {
		for j := range prof.VDs {
			if d := prof.VDs[j].L.Dist(p); d < bestD {
				bestD = d
				best = prof
			}
		}
	}
	return best
}

// Rows renders the result in the bench binary's row format.
func (r *ReverifyResult) Rows() []string {
	return []string{
		fmt.Sprintf("final viewmap after %d flood waves: %d members, %d verified legitimate", r.Waves, r.Members, r.Legitimate),
		fmt.Sprintf("incremental system TrustRank runs: %d warm (median %d iterations), %d cold (median %d iterations)",
			r.WarmRuns, r.WarmP50Iters, r.ColdRuns, r.ColdP50Iters),
		fmt.Sprintf("warm re-verification:  %12v/wave (patched site view + warm-started TrustRank)", r.WarmLatency),
		fmt.Sprintf("cold recompute:        %12v/wave (core.Build + TrustRank from uniform)", r.ColdLatency),
		fmt.Sprintf("speedup: %.1fx (post-flood re-investigation, verdicts asserted identical)", r.Speedup),
	}
}
