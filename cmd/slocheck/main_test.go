package main

import (
	"strings"
	"testing"

	"viewmap/internal/sim"
)

func gateBaseline() *sim.ScenarioResult {
	return &sim.ScenarioResult{
		Upload:            sim.EndpointSLO{Requests: 44, P99MS: 348.4},
		Investigate:       sim.EndpointSLO{Requests: 18, P99MS: 6.8},
		EvidencePoll:      sim.EndpointSLO{Requests: 4, P99MS: 1.4},
		ServerUpload:      sim.EndpointSLO{Requests: 64, P99MS: 260},
		ServerInvestigate: sim.EndpointSLO{Requests: 18, P99MS: 4.2},
		ZeroAckedLoss:     true,
		Violations:        []string{},
	}
}

func TestCompareWithinBandPasses(t *testing.T) {
	base := gateBaseline()
	cand := gateBaseline()
	// Noise within the band: double one class, leave the rest.
	cand.Upload.P99MS = base.Upload.P99MS * 2
	if v := compareReports(base, cand, 3.0, 50); len(v) != 0 {
		t.Fatalf("in-band candidate flagged: %v", v)
	}
}

func TestCompareSeededRegressionFails(t *testing.T) {
	base := gateBaseline()
	cand := gateBaseline()
	// Seeded regression: just past the band on one class.
	cand.Investigate.P99MS = base.Investigate.P99MS*3.0 + 50 + 1
	v := compareReports(base, cand, 3.0, 50)
	if len(v) != 1 {
		t.Fatalf("seeded regression produced %d violations: %v", len(v), v)
	}
	if !strings.Contains(v[0], "investigate p99") {
		t.Fatalf("violation names the wrong class: %q", v[0])
	}
}

func TestCompareFloorAbsorbsMicrosecondJitter(t *testing.T) {
	base := gateBaseline()
	base.EvidencePoll.P99MS = 0.3
	cand := gateBaseline()
	// 40 ms on a 0.3 ms baseline is a 130x ratio but under the 50 ms
	// floor — scheduler jitter, not a regression.
	cand.EvidencePoll.P99MS = 40
	if v := compareReports(base, cand, 3.0, 50); len(v) != 0 {
		t.Fatalf("floor did not absorb jitter: %v", v)
	}
}

func TestCompareStructuralInvariants(t *testing.T) {
	base := gateBaseline()
	cand := gateBaseline()
	cand.ZeroAckedLoss = false
	cand.Violations = []string{"upload p99 900.0 ms exceeds 500ms"}
	v := compareReports(base, cand, 3.0, 50)
	if len(v) != 2 {
		t.Fatalf("structural failures produced %d violations: %v", len(v), v)
	}
	if !strings.Contains(v[0], "zero_acked_loss") || !strings.Contains(v[1], "scenario SLO violation") {
		t.Fatalf("violations: %v", v)
	}
}

func familyBaseline() sim.FamilySummary {
	return sim.FamilySummary{
		Name:           "crash",
		Upload:         sim.EndpointSLO{Requests: 30, P99MS: 5.1},
		Investigate:    sim.EndpointSLO{Requests: 22, P99MS: 3.8},
		ZeroAckedLoss:  true,
		ProbesCompared: 22,
		Crashes:        1,
		WALReplayed:    17,
	}
}

func TestCompareFamilyWithinBandPasses(t *testing.T) {
	base := gateBaseline()
	base.Families = []sim.FamilySummary{familyBaseline()}
	cand := gateBaseline()
	cf := familyBaseline()
	// Counters may move (a different replay tail) as long as they stay
	// engaged, and p99s ride the same band.
	cf.WALReplayed = 3
	cf.Upload.P99MS *= 2
	cand.Families = []sim.FamilySummary{cf}
	if v := compareReports(base, cand, 3.0, 50); len(v) != 0 {
		t.Fatalf("in-band family flagged: %v", v)
	}
}

func TestCompareFamilyRegressions(t *testing.T) {
	base := gateBaseline()
	base.Families = []sim.FamilySummary{familyBaseline()}

	// A family missing from the candidate is structural.
	cand := gateBaseline()
	v := compareReports(base, cand, 3.0, 50)
	if len(v) != 1 || !strings.Contains(v[0], "missing from candidate") {
		t.Fatalf("missing family: %v", v)
	}

	// An engagement counter the baseline proved nonzero dropping to
	// zero fails even with healthy latencies.
	cand = gateBaseline()
	cf := familyBaseline()
	cf.Crashes = 0
	cand.Families = []sim.FamilySummary{cf}
	v = compareReports(base, cand, 3.0, 50)
	if len(v) != 1 || !strings.Contains(v[0], "crashes ridden out") || !strings.Contains(v[0], "no longer engages") {
		t.Fatalf("disengaged family: %v", v)
	}

	// Family acked loss and a per-family p99 blowout both gate.
	cand = gateBaseline()
	cf = familyBaseline()
	cf.ZeroAckedLoss = false
	cf.Investigate.P99MS = cf.Investigate.P99MS*3 + 50 + 1
	cand.Families = []sim.FamilySummary{cf}
	v = compareReports(base, cand, 3.0, 50)
	if len(v) != 2 {
		t.Fatalf("family loss + p99 produced %d violations: %v", len(v), v)
	}
	if !strings.Contains(v[0], "lost acknowledged data") || !strings.Contains(v[1], "family:crash:investigate p99") {
		t.Fatalf("violations: %v", v)
	}

	// A candidate-only family (a new drill) is not a failure.
	cand = gateBaseline()
	cand.Families = []sim.FamilySummary{familyBaseline(), {Name: "new_drill", ZeroAckedLoss: true}}
	if v := compareReports(base, cand, 3.0, 50); len(v) != 0 {
		t.Fatalf("candidate-only family flagged: %v", v)
	}
}

func TestCompareServerSideGatesOnlyWithBaseline(t *testing.T) {
	// An old baseline without server-side histograms (Requests==0)
	// must not gate those classes; a new one must.
	old := gateBaseline()
	old.ServerUpload = sim.EndpointSLO{}
	old.ServerInvestigate = sim.EndpointSLO{}
	cand := gateBaseline()
	cand.ServerUpload.P99MS = 1e6
	if v := compareReports(old, cand, 3.0, 50); len(v) != 0 {
		t.Fatalf("server-side class gated against an empty baseline: %v", v)
	}
	if v := compareReports(gateBaseline(), cand, 3.0, 50); len(v) != 1 {
		t.Fatalf("server-side regression not gated: %v", v)
	}
}

func TestCompareProbeDigests(t *testing.T) {
	const a = "4234f36cd0f06d7d433ee4c208229bbb5b3c561da58c739857ced47179a52899"
	const b = "0e9f79fcd369d504c40e101bddb492a71a75f213f7ab70e9b6acbfe2bb6ef1b0"
	withDigests := func(run, family string) *sim.ScenarioResult {
		r := gateBaseline()
		r.ProbeDigest = run
		f := familyBaseline()
		f.ProbeDigest = family
		r.Families = []sim.FamilySummary{f}
		return r
	}
	base := withDigests(a, b)

	if v := compareReports(base, withDigests(a, b), 3.0, 50); len(v) != 0 {
		t.Fatalf("equal digests flagged: %v", v)
	}
	v := compareReports(base, withDigests(b, b), 3.0, 50)
	if len(v) != 1 || !strings.Contains(v[0], "scenario probe digest") {
		t.Fatalf("main-run digest mismatch: %v", v)
	}
	v = compareReports(base, withDigests(a, a), 3.0, 50)
	if len(v) != 1 || !strings.Contains(v[0], "fault family crash probe digest") {
		t.Fatalf("family digest mismatch: %v", v)
	}
	// A baseline without digests predates them and gates nothing.
	if v := compareReports(withDigests("", ""), withDigests(a, b), 3.0, 50); len(v) != 0 {
		t.Fatalf("digest gated against an empty baseline: %v", v)
	}
}
