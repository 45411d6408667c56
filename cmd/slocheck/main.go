// Command slocheck is the per-commit SLO regression gate: it compares
// a candidate scenario SLO report (a fresh `viewmap-bench -run
// scenario -json` artifact) against the committed baseline
// (BENCH_scenario.json) and exits non-zero if the served verdicts
// changed or any endpoint's p99 regressed beyond the tolerance band.
//
// Usage:
//
//	slocheck -baseline BENCH_scenario.json -candidate BENCH_scenario.candidate.json
//	         [-max-ratio 3.0] [-floor-ms 50]
//
// The band is deliberately loose — scenario latencies ride CI machine
// noise — but hard: a candidate p99 above baseline*max-ratio+floor-ms
// fails the build, as does a candidate that lost acknowledged data or
// violated a scenario-internal SLO. The floor keeps microsecond-scale
// baselines (investigate, evidence poll) from failing on scheduler
// jitter alone; the ratio catches order-of-magnitude regressions on
// every class. The probe digest (a SHA-256 over every final-pass
// verdict) must equal the baseline's, for the main run and for each
// fault family in both reports: the scenario is deterministic, so a
// different digest means the served verdicts changed. Baselines that
// carry fault-family summaries (the "families" array) extend the
// gate: each family's upload/investigate p99 rides the same band, and
// a family that disappears, loses acked data, or whose engagement
// counters (crashes, stale rejects, partition rejects, cold probes,
// watch reports) drop to zero fails the build outright. A deliberate
// change of verdicts or latencies regenerates the baseline. See
// docs/observability.md for the workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"viewmap/internal/sim"
)

func main() {
	baseline := flag.String("baseline", "BENCH_scenario.json", "committed scenario SLO baseline")
	candidate := flag.String("candidate", "", "fresh scenario SLO report to gate")
	maxRatio := flag.Float64("max-ratio", 3.0, "candidate p99 may be at most baseline p99 times this ratio (plus the floor)")
	floorMS := flag.Float64("floor-ms", 50, "absolute slack in milliseconds added on top of the ratio band")
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "slocheck: -candidate is required")
		os.Exit(2)
	}

	base, err := loadReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slocheck: %v\n", err)
		os.Exit(2)
	}
	cand, err := loadReport(*candidate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slocheck: %v\n", err)
		os.Exit(2)
	}

	violations := compareReports(base, cand, *maxRatio, *floorMS)
	for _, c := range classComparisons(base, cand) {
		fmt.Printf("%-18s baseline p99 %8.1f ms, candidate p99 %8.1f ms (limit %8.1f ms)\n",
			c.name, c.base, c.cand, c.base**maxRatio+*floorMS)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "slocheck: FAIL: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("slocheck: candidate within the SLO band")
}

func loadReport(path string) (*sim.ScenarioResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r sim.ScenarioResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// classComparison pairs one endpoint class's baseline and candidate
// p99 for gating and display.
type classComparison struct {
	name       string
	base, cand float64
	// optional marks classes absent from older baselines (the
	// server-side histograms); they gate only when the baseline has
	// them.
	optional bool
	baseSeen bool
}

func classComparisons(base, cand *sim.ScenarioResult) []classComparison {
	out := []classComparison{
		{"upload", base.Upload.P99MS, cand.Upload.P99MS, false, true},
		{"investigate", base.Investigate.P99MS, cand.Investigate.P99MS, false, true},
		{"evidence_poll", base.EvidencePoll.P99MS, cand.EvidencePoll.P99MS, false, true},
		{"server_upload", base.ServerUpload.P99MS, cand.ServerUpload.P99MS, true, base.ServerUpload.Requests > 0},
		{"server_investigate", base.ServerInvestigate.P99MS, cand.ServerInvestigate.P99MS, true, base.ServerInvestigate.Requests > 0},
	}
	// Per-family latency classes: gated only when the baseline carries
	// the family (older baselines predate them), and only when the
	// candidate ran it too (a missing candidate family is a structural
	// failure reported by compareReports, not a latency pass).
	for _, bf := range base.Families {
		cf, ok := candFamily(cand, bf.Name)
		if !ok {
			continue
		}
		out = append(out,
			classComparison{"family:" + bf.Name + ":upload", bf.Upload.P99MS, cf.Upload.P99MS, true, true},
			classComparison{"family:" + bf.Name + ":investigate", bf.Investigate.P99MS, cf.Investigate.P99MS, true, true},
		)
	}
	return out
}

func candFamily(r *sim.ScenarioResult, name string) (sim.FamilySummary, bool) {
	for _, f := range r.Families {
		if f.Name == name {
			return f, true
		}
	}
	return sim.FamilySummary{}, false
}

// compareReports returns every way the candidate fails the gate:
// structural invariants first (acked loss, scenario-internal SLO
// violations, probe digests), then per-class p99 regressions beyond
// baseline*maxRatio+floorMS.
func compareReports(base, cand *sim.ScenarioResult, maxRatio, floorMS float64) []string {
	var out []string
	if !cand.ZeroAckedLoss {
		out = append(out, "candidate lost acknowledged data (zero_acked_loss=false)")
	}
	for _, v := range cand.Violations {
		out = append(out, "candidate scenario SLO violation: "+v)
	}
	if d := digestChange("scenario", base.ProbeDigest, cand.ProbeDigest); d != "" {
		out = append(out, d)
	}
	// Fault families present in the baseline must stay present, keep
	// zero acked loss, and keep engaging their fault: a counter the
	// baseline proved nonzero (crashes ridden out, stale uploads
	// bounced, partition rejects, cold probes, watch reports) dropping
	// to zero means the family silently stopped testing anything.
	for _, bf := range base.Families {
		cf, ok := candFamily(cand, bf.Name)
		if !ok {
			out = append(out, fmt.Sprintf("fault family %s present in baseline but missing from candidate", bf.Name))
			continue
		}
		if !cf.ZeroAckedLoss {
			out = append(out, fmt.Sprintf("fault family %s lost acknowledged data", bf.Name))
		}
		if d := digestChange("fault family "+bf.Name, bf.ProbeDigest, cf.ProbeDigest); d != "" {
			out = append(out, d)
		}
		engaged := []struct {
			what       string
			base, cand int
		}{
			{"probes compared", bf.ProbesCompared, cf.ProbesCompared},
			{"crashes ridden out", bf.Crashes, cf.Crashes},
			{"WAL records replayed", bf.WALReplayed, cf.WALReplayed},
			{"stale uploads rejected", bf.StaleRejectedVPs, cf.StaleRejectedVPs},
			{"partition rejects", bf.PartitionRejects, cf.PartitionRejects},
			{"cold probes", bf.ColdProbes, cf.ColdProbes},
			{"watch reports", bf.WatchReports, cf.WatchReports},
		}
		for _, e := range engaged {
			if e.base > 0 && e.cand == 0 {
				out = append(out, fmt.Sprintf("fault family %s: %s fell from %d to 0 — the fault no longer engages", bf.Name, e.what, e.base))
			}
		}
	}
	for _, c := range classComparisons(base, cand) {
		if c.optional && !c.baseSeen {
			continue
		}
		if limit := c.base*maxRatio + floorMS; c.cand > limit {
			out = append(out, fmt.Sprintf("%s p99 %.1f ms exceeds %.1f ms (baseline %.1f ms x %.1f + %.0f ms floor)",
				c.name, c.cand, limit, c.base, maxRatio, floorMS))
		}
	}
	return out
}

// digestChange names a probe-digest mismatch against a non-empty
// baseline digest, or returns "" when the digests agree.
func digestChange(run, base, cand string) string {
	if base == "" || cand == base {
		return ""
	}
	return fmt.Sprintf("%s probe digest %s differs from baseline %s: the served verdicts changed", run, cand, base)
}
