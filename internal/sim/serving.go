package sim

import (
	"fmt"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// This file benchmarks the system service as a serving system rather
// than a batch pipeline: a sustained stream of batched anonymous VP
// uploads flows into the sharded store (each profile linked into its
// minute's viewmap on ingest), while an authority fires repeated
// investigations at the warm minutes. The rebuild-per-request baseline
// — core.Build on every investigation, the pre-incremental behaviour —
// is computed over the same stored profiles for comparison.

// ServingConfig parameterizes the sustained-ingest serving benchmark.
type ServingConfig struct {
	// VehiclesPerMinute is the number of VP uploads per unit-time
	// window; zero selects 200.
	VehiclesPerMinute int
	// Minutes is the number of unit-time windows the upload stream
	// spans; zero selects 2.
	Minutes int
	// BatchSize is the number of profiles per batched upload; zero
	// selects 64.
	BatchSize int
	// WarmRequests is the number of repeated investigations per warm
	// minute; zero selects 10.
	WarmRequests int
	// Seed drives the synthetic trajectories.
	Seed int64
}

func (c ServingConfig) withDefaults() ServingConfig {
	if c.VehiclesPerMinute <= 0 {
		c.VehiclesPerMinute = 200
	}
	if c.Minutes <= 0 {
		c.Minutes = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.WarmRequests <= 0 {
		c.WarmRequests = 10
	}
	return c
}

// ServingResult reports one serving-benchmark run.
type ServingResult struct {
	// Ingested is the total number of profiles stored.
	Ingested int
	// IngestRate is profiles linked into viewmaps per second.
	IngestRate float64
	// VerifyLatency is the mean latency of a full TrustRank VerifySite
	// run over the cached, already-linked viewmap of a warm minute —
	// the honest "repeated VerifySite" comparison against the rebuild
	// baseline, with no verdict caching involved.
	VerifyLatency time.Duration
	// WarmLatency is the mean end-to-end repeated-investigation
	// latency against the incremental system, where the verdict cache
	// also short-circuits the repeated TrustRank run.
	WarmLatency time.Duration
	// RebuildLatency is the mean latency of the rebuild-per-request
	// baseline over the same data (core.Build + VerifySite each time).
	RebuildLatency time.Duration
	// Speedup is RebuildLatency / VerifyLatency: how much faster a
	// repeated VerifySite is when the viewmap is already linked and
	// cached. The end-to-end investigation speedup
	// (RebuildLatency / WarmLatency) is larger still.
	Speedup float64
	// Members and Legitimate describe the investigated viewmap, as a
	// sanity check that both paths verified the same structure.
	Members    int
	Legitimate int
}

// Serving runs the sustained-ingest serving benchmark: an upload
// stream (batched wire uploads plus one trusted VP per minute) is fed
// to a system, which then answers repeated investigations over the
// warm minutes; the rebuild-per-request baseline answers the same
// requests from the same stored profiles (rebuildVerify). Both must
// report identical viewmap structure; the paths differ only in how
// much work a warm request repeats.
func Serving(cfg ServingConfig) (*ServingResult, error) {
	cfg = cfg.withDefaults()
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	site := geo.RectAround(area.Center(), 300)

	incremental, err := server.NewSystem(server.Config{AuthorityToken: "bench", BankBits: 1024})
	if err != nil {
		return nil, err
	}

	res := &ServingResult{}
	var ingestTime time.Duration
	for m := 0; m < cfg.Minutes; m++ {
		profiles, err := core.SynthesizeLegitimate(core.SynthConfig{
			N: cfg.VehiclesPerMinute, Area: area, Minute: int64(m),
			Seed: cfg.Seed + int64(m),
		})
		if err != nil {
			return nil, err
		}
		ti := core.MarkTrustedNearest(profiles, area.Center())
		trustedWire := profiles[ti].Marshal()
		anon := make([]*vp.Profile, 0, len(profiles)-1)
		for i, p := range profiles {
			if i != ti {
				anon = append(anon, p)
			}
		}
		// The trusted upload and the batched anonymous stream, timed
		// against the incremental system (ingest includes linking each
		// profile into its minute's viewmap).
		start := time.Now()
		if err := incremental.UploadTrustedVP("bench", trustedWire); err != nil {
			return nil, err
		}
		for off := 0; off < len(anon); off += cfg.BatchSize {
			end := min(off+cfg.BatchSize, len(anon))
			batch, err := incremental.UploadVPBatch(vp.MarshalBatch(anon[off:end]))
			if err != nil {
				return nil, err
			}
			res.Ingested += batch.Stored
		}
		ingestTime += time.Since(start)
		res.Ingested++ // the trusted VP
	}
	res.IngestRate = float64(res.Ingested) / ingestTime.Seconds()

	// Prime the system (the first investigation of a site extracts and
	// caches; a warm minute is the steady serving state), checking that
	// the two paths verify identical structure.
	for m := 0; m < cfg.Minutes; m++ {
		ri, err := incremental.Investigate("bench", site, int64(m))
		if err != nil {
			return nil, err
		}
		vm, verdict, err := rebuildVerify(incremental, site, int64(m))
		if err != nil {
			return nil, err
		}
		if ri.Members != vm.Len() || ri.Edges != vm.NumEdges() || len(ri.Legitimate) != len(verdict.Legitimate) {
			return nil, fmt.Errorf("sim: serving paths diverge at minute %d: %d/%d/%d vs %d/%d/%d members/edges/legitimate",
				m, ri.Members, ri.Edges, len(ri.Legitimate), vm.Len(), vm.NumEdges(), len(verdict.Legitimate))
		}
		res.Members, res.Legitimate = ri.Members, len(ri.Legitimate)
	}

	start := time.Now()
	for i := 0; i < cfg.WarmRequests; i++ {
		if _, err := incremental.Investigate("bench", site, int64(i%cfg.Minutes)); err != nil {
			return nil, err
		}
	}
	res.WarmLatency = time.Since(start) / time.Duration(cfg.WarmRequests)
	start = time.Now()
	for i := 0; i < cfg.WarmRequests; i++ {
		if _, _, err := rebuildVerify(incremental, site, int64(i%cfg.Minutes)); err != nil {
			return nil, err
		}
	}
	res.RebuildLatency = time.Since(start) / time.Duration(cfg.WarmRequests)

	// Repeated VerifySite on the warm minutes' cached viewmaps, run
	// in full every iteration (no verdict cache): this isolates what
	// incremental construction saves a verification-heavy workload.
	start = time.Now()
	for i := 0; i < cfg.WarmRequests; i++ {
		vm, err := incremental.Store().ViewmapFor(site, int64(i%cfg.Minutes))
		if err != nil {
			return nil, err
		}
		if _, err := vm.VerifySite(vm.InSite(site), core.TrustRankConfig{}); err != nil {
			return nil, err
		}
	}
	res.VerifyLatency = time.Since(start) / time.Duration(cfg.WarmRequests)

	if res.VerifyLatency > 0 {
		res.Speedup = float64(res.RebuildLatency) / float64(res.VerifyLatency)
	}
	return res, nil
}

// rebuildVerify is the rebuild-per-request baseline the serving
// benchmarks compare against: core.Build over the minute's stored
// profiles, then a cold TrustRank from the uniform vector — what every
// investigation cost before link-on-ingest, computed from the same
// data the system serves.
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

// Rows renders the result in the bench binary's row format.
func (r *ServingResult) Rows() []string {
	return []string{
		fmt.Sprintf("ingested %d VPs at %.0f VPs/s (linked into per-minute viewmaps on ingest)", r.Ingested, r.IngestRate),
		fmt.Sprintf("investigated viewmap: %d members, %d verified legitimate", r.Members, r.Legitimate),
		fmt.Sprintf("warm VerifySite:       %12v/req (full TrustRank over the cached, already-linked viewmap)", r.VerifyLatency),
		fmt.Sprintf("warm investigation:    %12v/req (end to end; the verdict cache also skips the repeated TrustRank)", r.WarmLatency),
		fmt.Sprintf("rebuild-per-request:   %12v/req (core.Build + TrustRank each time)", r.RebuildLatency),
		fmt.Sprintf("speedup: %.1fx (VerifySite on warm minute vs rebuild-per-request)", r.Speedup),
	}
}
