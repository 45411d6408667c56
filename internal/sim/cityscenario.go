package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewmap/internal/client"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/server"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// Scenario engine: declaratively composed city-scale runs against the
// live HTTP serving path. A scenario drives two or three roadnet
// cities (disjoint footprints, one shared minute-sharded store)
// through a diurnal traffic curve with fleet churn, injects a fault
// plan mid-run — slow-disk WAL fsync stalls through the
// DurabilityConfig.Fsync hook, snapshotter pauses, burst-ring
// saturation through duplicate upload storms, crash-and-recover
// windows through the WAL's ack-after-append seam, per-city clock
// skew against the wall-clock admission window, and per-endpoint-class
// partitions (evidence board, investigations, uploads) — and layers
// correlated evidence-demand spikes after incidents. The run is graded
// through the full stack: every upload, probe, and board poll
// traverses a real httptest server, the client's onion circuits, and
// the server's admission gates, and every probe's per-VP verdicts
// must be bit-for-bit identical to an unfaulted, always-resident,
// in-memory baseline fed exactly the same profiles.
// The engine emits a machine-readable SLO report (per-endpoint
// p50/p99, shed counts, zero-acked-loss) and hard-fails on any
// violated invariant.
//
// Determinism: the workload (cities, churn, diurnal activity, batch
// composition) is a pure function of the seed; uploads are retried
// until acknowledged, so the set of stored profiles — and therefore
// every probe outcome and the result's Fingerprint — is identical run
// to run. Only the timing-dependent overload counters (sheds,
// retries, latencies) vary.

// FaultPlan schedules the scenario's fault injections by minute index.
// The zero value injects nothing.
type FaultPlan struct {
	// FsyncStallFrom and FsyncStallMinutes bound the slow-disk window:
	// during minutes [FsyncStallFrom, FsyncStallFrom+FsyncStallMinutes)
	// every WAL fsync on the group-commit path is delayed by
	// FsyncStallDelay before the real sync runs. Acks slow down and
	// the ingest gate backs up; durability is never weakened.
	FsyncStallFrom    int
	FsyncStallMinutes int
	// FsyncStallDelay is the injected per-fsync delay.
	FsyncStallDelay time.Duration
	// SnapshotPauseFrom and SnapshotPauseMinutes pause the
	// snapshotter: checkpoints that fall inside the window are skipped
	// (and counted), so the WAL grows unboundedly for the duration —
	// the slow-snapshot degraded mode.
	SnapshotPauseFrom    int
	SnapshotPauseMinutes int
	// SaturateFactor re-submits every upload batch of a slow-disk
	// minute this many extra times, concurrently with the originals —
	// burst-ring and admission-gate saturation. The duplicates are
	// bit-identical wire bodies, so whatever interleaving wins, the
	// stored profile set is unchanged (duplicate identifiers are
	// rejected) and baseline equality is preserved.
	SaturateFactor int
	// PartitionFrom and PartitionMinutes bound the evidence-board
	// partition: every /v1/evidence request inside the window is
	// answered 503 before reaching the service. Incidents must be
	// scheduled outside the window.
	PartitionFrom    int
	PartitionMinutes int
	// CrashAtMinute, when > 0, kills the durable system mid-minute:
	// after roughly half the minute's batches are acknowledged, one
	// still-pending batch is appended to the WAL and the process
	// aborts — the ack-after-append crash window — then the store
	// reopens from disk, the recovered system swaps in behind the same
	// HTTP front, and the rest of the minute drains (including a retry
	// of the parked batch, which recovery already replayed, so it
	// lands as duplicates). Traffic resumes mid-minute; every
	// post-recovery probe must still match the baseline bit for bit.
	CrashAtMinute int
	// SkewMaxLagMinutes arms the server's wall-clock upload admission
	// window (server.Config.MaxUploadLagMinutes) and injects the
	// scenario's own clock: the server's "now" is the current scenario
	// minute. Zero keeps admission purely content-derived.
	SkewMaxLagMinutes int
	// CityClockSkew gives city i's uploader fleet a clock
	// CityClockSkew[i] minutes behind the server: at scenario minute m
	// the fleet fabricates and uploads minute m-s content. Cities
	// within SkewMaxLagMinutes are admitted and mirrored into the
	// baseline; cities beyond it must see every anonymous record
	// rejected as stale on the wire peek — only their trusted anchor
	// (authority-clocked, admission-exempt) lands. Shorter than Cities
	// means the remaining cities run unskewed.
	CityClockSkew []int
	// InvestigatePartitionFrom and InvestigatePartitionMinutes answer
	// every /v1/investigate request (reports and watches) 503 at the
	// front for the window. Uploads keep landing and the investigate
	// admission gate stays isolated (never sheds); after the heal, a
	// watch on a partitioned minute must resume from epoch zero with
	// the full report and deliver nothing when resumed from that
	// epoch.
	InvestigatePartitionFrom    int
	InvestigatePartitionMinutes int
	// UploadPartitionFrom and UploadPartitionMinutes answer every
	// /v1/vp request 503 at the front: the affected minutes' traffic
	// is deferred client-side (the retry policy only retries 429s) and
	// drained right after the heal, while investigations keep
	// answering throughout the outage.
	UploadPartitionFrom    int
	UploadPartitionMinutes int
}

// IncidentPlan is one correlated evidence-demand spike: at the end of
// Minute, the authority opens a solicitation over City's central site
// and Polls concurrent vehicles immediately poll the evidence board —
// the "everyone saw the crash" stampede.
type IncidentPlan struct {
	// Minute is the minute index after whose uploads the incident fires.
	Minute int
	// City indexes ScenarioConfig.Cities.
	City int
	// Units is the solicitation's per-VP reward; zero selects 2.
	Units int
	// Polls is the number of concurrent board pollers; zero selects 4.
	Polls int
	// TargetMinuteOffset aims the solicitation at minute
	// Minute-TargetMinuteOffset (clamped at zero) instead of the hot
	// minute — with retention active this drives evidence demand into
	// evicted minutes.
	TargetMinuteOffset int
}

// ScenarioSLO holds the latency objectives a scenario is graded
// against; a zero duration disables that gate. Structural invariants
// (zero acked loss, probe equality, investigations never shed) are
// always enforced regardless.
type ScenarioSLO struct {
	// UploadP99 bounds the batched-upload p99 (retries included).
	UploadP99 time.Duration
	// InvestigateP99 bounds the investigation-report p99.
	InvestigateP99 time.Duration
	// EvidenceP99 bounds the evidence-board-poll p99.
	EvidenceP99 time.Duration
}

// ScenarioConfig declaratively composes one scenario run.
type ScenarioConfig struct {
	// Cities are the roadnet cities sharing the service; empty selects
	// two quick-scale cities. Minutes and Seed of each entry are
	// overridden by the scenario's; a city at index > 0 whose origin
	// is unset is offset east of its predecessor so footprints stay
	// disjoint.
	Cities []CityConfig
	// Minutes is the scenario horizon; zero selects 5.
	Minutes int
	// Diurnal is the per-minute activity fraction in (0,1]: the share
	// of each city's present fleet that drives and uploads that
	// minute (cycled when shorter than Minutes). Empty selects a
	// sinusoidal day curve between 0.2 and 1.0.
	Diurnal []float64
	// ChurnLeaveFrac is the fleet fraction that departs mid-run;
	// ChurnJoinFrac the fraction that joins late (fresh vehicles,
	// fresh per-minute identities — re-keying is implicit in the VP
	// scheme). Zero selects 0.25 each; negative disables.
	ChurnLeaveFrac float64
	ChurnJoinFrac  float64
	// BatchSize is profiles per batched upload; zero selects 8.
	BatchSize int
	// Uploaders is the concurrent upload worker count; zero selects 6.
	Uploaders int
	// Incidents are the evidence-demand spikes.
	Incidents []IncidentPlan
	// Faults is the fault plan.
	Faults FaultPlan
	// Overload configures the server's admission gates; the zero
	// value selects the server defaults (generous). Quick scenarios
	// tighten the ingest gate to force shedding.
	Overload server.OverloadConfig
	// SLO holds the optional latency objectives.
	SLO ScenarioSLO
	// SnapshotEvery is the checkpoint cadence in minutes; zero
	// selects 3.
	SnapshotEvery int
	// RetentionMinutes > 0 runs the scenario in long-horizon mode:
	// minutes older than the horizon are spilled to segment files as
	// the run progresses, and the engine probes evicted minutes
	// (reports, watches, and — via incident TargetMinuteOffset —
	// evidence demand) concurrently with the hot-minute storms.
	RetentionMinutes int
	// ResidentColdMinutes bounds reloaded cold shards; zero selects 1
	// when retention is on.
	ResidentColdMinutes int
	// Dir is the durability directory; empty creates (and removes) a
	// temporary one.
	Dir string
	// Seed drives the whole workload.
	Seed int64
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if len(c.Cities) == 0 {
		c.Cities = []CityConfig{
			{Vehicles: 12, BlocksX: 6, BlocksY: 6, SpacingM: 150},
			{Vehicles: 10, BlocksX: 5, BlocksY: 5, SpacingM: 150},
		}
	}
	if c.Minutes <= 0 {
		c.Minutes = 5
	}
	if c.ChurnLeaveFrac == 0 {
		c.ChurnLeaveFrac = 0.25
	}
	if c.ChurnJoinFrac == 0 {
		c.ChurnJoinFrac = 0.25
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Uploaders <= 0 {
		c.Uploaders = 6
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 3
	}
	if c.RetentionMinutes > 0 && c.ResidentColdMinutes <= 0 {
		c.ResidentColdMinutes = 1
	}
	return c
}

// QuickScenarioConfig is the 1-shot smoke configuration shared by
// `viewmap-bench -run scenario -scale quick`, the scenario-smoke CI
// job, and TestScenarioQuick: two small cities, a tight ingest gate,
// and the full fault plan — a mid-run WAL fsync stall with duplicate-
// storm saturation, a snapshotter pause, an incident-driven evidence
// spike, and a final-minute evidence-board partition.
func QuickScenarioConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Minutes:   5,
		BatchSize: 3,
		Uploaders: 8,
		Overload: server.OverloadConfig{
			IngestSlots: 2, IngestQueue: 2,
		},
		Incidents: []IncidentPlan{{Minute: 2, City: 0, Units: 2, Polls: 4}},
		Faults: FaultPlan{
			FsyncStallFrom: 1, FsyncStallMinutes: 2,
			FsyncStallDelay:   40 * time.Millisecond,
			SaturateFactor:    2,
			SnapshotPauseFrom: 1, SnapshotPauseMinutes: 1,
			PartitionFrom: 4, PartitionMinutes: 1,
		},
		SnapshotEvery: 2,
		Seed:          seed,
	}
}

// EndpointSLO is one endpoint class's latency/volume summary in the
// scenario's SLO report.
type EndpointSLO struct {
	// Requests counts completed requests of the class.
	Requests int `json:"requests"`
	// P50MS and P99MS are the class's latency percentiles in
	// milliseconds (for uploads, retries and backoff included — the
	// latency a shed-and-retrying client actually experiences).
	P50MS float64 `json:"p50_ms"`
	// P99MS is the 99th-percentile latency in milliseconds.
	P99MS float64 `json:"p99_ms"`
}

// FamilySummary is one fault family's entry in the scenario SLO
// report: the family's own full-stack run reduced to the counters the
// CI gate regresses on.
type FamilySummary struct {
	// Name identifies the family (crash, clock_skew, partition,
	// retention).
	Name string `json:"name"`
	// Upload and Investigate are the family run's client-side SLO
	// summaries.
	Upload      EndpointSLO `json:"upload"`
	Investigate EndpointSLO `json:"investigate"`
	// ZeroAckedLoss and ProbesCompared echo the family run's
	// structural results.
	ZeroAckedLoss  bool `json:"zero_acked_loss"`
	ProbesCompared int  `json:"probes_compared"`
	// Crashes and WALReplayed count crash-and-recover cycles and the
	// WAL records replayed across them.
	Crashes     int `json:"crashes"`
	WALReplayed int `json:"wal_replayed"`
	// StaleRejectedVPs counts uploads the admission window turned away.
	StaleRejectedVPs int `json:"stale_rejected_vps"`
	// PartitionRejects counts requests correctly refused at the front.
	PartitionRejects int `json:"partition_rejects"`
	// ColdProbes and WatchReports count evicted-minute probes and
	// streamed watch reports verified against the baseline.
	ColdProbes   int `json:"cold_probes"`
	WatchReports int `json:"watch_reports"`
	// ProbeDigest is the family run's deterministic fingerprint.
	ProbeDigest string `json:"probe_digest"`
}

// ScenarioResult is the machine-readable SLO report of one scenario
// run (the artifact scenario-smoke uploads in CI).
type ScenarioResult struct {
	// Cities, Minutes, and Seed echo the configuration.
	Cities  int   `json:"cities"`
	Minutes int   `json:"minutes"`
	Seed    int64 `json:"seed"`
	// VehiclesTotal is the summed fleet size across cities.
	VehiclesTotal int `json:"vehicles_total"`
	// OfferedVPs counts profiles offered (diurnal- and churn-gated);
	// AckedVPs counts profiles the faulted system acknowledged. The
	// zero-acked-loss invariant requires them equal.
	OfferedVPs int `json:"offered_vps"`
	AckedVPs   int `json:"acked_vps"`
	// AckedBatches counts acknowledged unique upload batches.
	AckedBatches int `json:"acked_batches"`
	// Upload, Investigate, and EvidencePoll are the per-endpoint SLO
	// summaries, measured client-side (retries and backoff included).
	Upload       EndpointSLO `json:"upload"`
	Investigate  EndpointSLO `json:"investigate"`
	EvidencePoll EndpointSLO `json:"evidence_poll"`
	// ServerUpload and ServerInvestigate are the same two paths as
	// measured by the server's own latency histograms (handler wall
	// time, no client retries; quantiles are histogram bucket upper
	// bounds, so a true p99 of v reports as v <= estimate < 2v).
	// Across a crash they merge incarnations: requests sum, quantiles
	// take the worst incarnation.
	ServerUpload      EndpointSLO `json:"server_upload"`
	ServerInvestigate EndpointSLO `json:"server_investigate"`
	// IngestShed, InvestigateShed, and EvidenceShed mirror the
	// server's admission-gate shed counters at run end, summed across
	// crash incarnations.
	IngestShed      uint64 `json:"ingest_shed"`
	InvestigateShed uint64 `json:"investigate_shed"`
	EvidenceShed    uint64 `json:"evidence_shed"`
	// Client429s counts 429 responses the clients observed; it must
	// equal the summed shed counters.
	Client429s uint64 `json:"client_429s"`
	// ZeroAckedLoss reports the acked-equals-stored invariant (on
	// both the faulted system and the baseline).
	ZeroAckedLoss bool `json:"zero_acked_loss"`
	// ProbesCompared counts InvestigateReport probes cross-checked
	// bit-for-bit against the unfaulted baseline (hot, concurrent,
	// cold, and final-pass).
	ProbesCompared int `json:"probes_compared"`
	// StalledFsyncs counts WAL fsyncs the fault plan delayed.
	StalledFsyncs int64 `json:"stalled_fsyncs"`
	// PartitionRejects counts requests correctly refused during
	// partition windows (evidence polls, investigate canaries, upload
	// canaries).
	PartitionRejects int `json:"partition_rejects"`
	// Incidents counts evidence-demand spikes fired.
	Incidents int `json:"incidents"`
	// SnapshotsWritten and SnapshotsSkipped count checkpoint cadence
	// hits and fault-plan pauses.
	SnapshotsWritten int `json:"snapshots_written"`
	SnapshotsSkipped int `json:"snapshots_skipped"`
	// Crashes counts crash-and-recover cycles; WALReplayed sums the
	// WAL records recovery replayed across them.
	Crashes     int `json:"crashes"`
	WALReplayed int `json:"wal_replayed"`
	// StaleRejectedVPs counts anonymous uploads the wall-clock
	// admission window rejected; it must equal the server's own stale
	// counter summed across incarnations.
	StaleRejectedVPs int `json:"stale_rejected_vps"`
	// ColdProbes counts probes answered from evicted minutes;
	// WatchReports counts streamed watch reports verified against the
	// baseline.
	ColdProbes   int `json:"cold_probes"`
	WatchReports int `json:"watch_reports"`
	// ProbeDigest is a SHA-256 over every final-pass probe outcome —
	// the deterministic fingerprint of the run's served state.
	ProbeDigest string `json:"probe_digest"`
	// Violations lists violated SLO latency objectives (structural
	// invariant violations abort the run with an error instead).
	Violations []string `json:"violations"`
	// Families carries the fault-family runs' summaries when the
	// caller runs them alongside the main scenario (the bench binary
	// does); empty otherwise.
	Families []FamilySummary `json:"families,omitempty"`
}

// Fingerprint returns the run's deterministic digest: two runs with
// the same configuration and seed must return identical strings.
func (r *ScenarioResult) Fingerprint() string {
	return fmt.Sprintf("cities=%d minutes=%d seed=%d offered=%d probes=%s",
		r.Cities, r.Minutes, r.Seed, r.OfferedVPs, r.ProbeDigest)
}

// Rows renders the result in the bench binary's row format.
func (r *ScenarioResult) Rows() []string {
	loss := "zero acked-batch loss"
	if !r.ZeroAckedLoss {
		loss = "ACKED LOSS DETECTED"
	}
	rows := []string{
		fmt.Sprintf("%d cities, %d minutes, %d vehicles: %d VPs offered, %d acked in %d batches (%s)",
			r.Cities, r.Minutes, r.VehiclesTotal, r.OfferedVPs, r.AckedVPs, r.AckedBatches, loss),
		fmt.Sprintf("upload SLO: %d requests, p50 %.1f ms, p99 %.1f ms (retries included)",
			r.Upload.Requests, r.Upload.P50MS, r.Upload.P99MS),
		fmt.Sprintf("investigate SLO: %d requests, p50 %.1f ms, p99 %.1f ms; evidence polls: %d, p99 %.1f ms",
			r.Investigate.Requests, r.Investigate.P50MS, r.Investigate.P99MS,
			r.EvidencePoll.Requests, r.EvidencePoll.P99MS),
		fmt.Sprintf("server-side: upload %d requests p99 %.1f ms, investigate %d requests p99 %.1f ms (histogram upper bounds)",
			r.ServerUpload.Requests, r.ServerUpload.P99MS,
			r.ServerInvestigate.Requests, r.ServerInvestigate.P99MS),
		fmt.Sprintf("shed: ingest %d, investigate %d, evidence %d (clients saw %d x 429); %d fsyncs stalled",
			r.IngestShed, r.InvestigateShed, r.EvidenceShed, r.Client429s, r.StalledFsyncs),
		fmt.Sprintf("faults ridden out: %d incidents, %d partition rejects, %d snapshots written, %d paused",
			r.Incidents, r.PartitionRejects, r.SnapshotsWritten, r.SnapshotsSkipped),
	}
	if r.Crashes > 0 || r.StaleRejectedVPs > 0 || r.ColdProbes > 0 || r.WatchReports > 0 {
		rows = append(rows, fmt.Sprintf("fault families: %d crashes (%d WAL records replayed), %d stale-rejected VPs, %d cold probes, %d watch reports",
			r.Crashes, r.WALReplayed, r.StaleRejectedVPs, r.ColdProbes, r.WatchReports))
	}
	rows = append(rows, fmt.Sprintf("probes vs unfaulted baseline: %d compared, all bit-for-bit; digest %s",
		r.ProbesCompared, r.ProbeDigest[:16]))
	for _, f := range r.Families {
		rows = append(rows, fmt.Sprintf("family %s: %d probes bit-for-bit, upload p99 %.1f ms, investigate p99 %.1f ms; crashes %d (replayed %d), stale %d, cold %d, watch %d",
			f.Name, f.ProbesCompared, f.Upload.P99MS, f.Investigate.P99MS,
			f.Crashes, f.WALReplayed, f.StaleRejectedVPs, f.ColdProbes, f.WatchReports))
	}
	return rows
}

// scenarioCity is one city's engine state.
type scenarioCity struct {
	run  *CityRun
	site geo.Rect
	// join and leave bound each vehicle's presence: the vehicle is in
	// town for minutes [join, leave).
	join, leave []int
	// skew is the city's uploader clock lag in minutes: at scenario
	// minute m the fleet uploads minute m-skew content.
	skew int
	// stale marks a skew beyond the admission window: every anonymous
	// record must bounce; only the trusted anchor lands.
	stale bool
}

// uploadJob is one batched upload in flight.
type uploadJob struct {
	profiles []*vp.Profile
	// ci and minute locate the batch's content (city index and content
	// minute) for coverage bookkeeping.
	ci     int
	minute int
	// mirror marks the batch's first (unique) submission, the one
	// replayed into the baseline; saturation duplicates do not mirror.
	mirror bool
	// expectStale marks a batch from a too-skewed fleet: the server
	// must reject every record as stale, and nothing mirrors.
	expectStale bool
}

// trustedAnchor is one minute's authority-backed upload.
type trustedAnchor struct {
	p      *vp.Profile
	ci     int
	minute int
}

// minutePlan is one scenario minute's composed offered load.
type minutePlan struct {
	trusted []trustedAnchor
	jobs    []uploadJob
}

// probeReq is one concurrent-prober target: city ci's content minute,
// cold when the minute is expected to have been evicted.
type probeReq struct {
	ci     int
	minute int
	cold   bool
}

// within reports whether minute m falls in [from, from+n).
func within(m, from, n int) bool { return n > 0 && m >= from && m < from+n }

// sortedIDs copies and sorts a verdict ID set: report ID slices are in
// member (commit) order, which differs between the faulted system and
// the baseline, so set comparisons sort first.
func sortedIDs(ids []vd.VPID) []vd.VPID {
	s := append([]vd.VPID(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i][:], s[j][:]) < 0 })
	return s
}

// latencyPercentilesMS computes p50/p99 of lat in milliseconds.
func latencyPercentilesMS(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2].Microseconds()) / 1e3,
		float64(s[len(s)*99/100].Microseconds()) / 1e3
}

// outcomeFromFullReport converts a direct server report into the
// client's wire-decoded outcome shape for bit-for-bit comparison.
func outcomeFromFullReport(rep *server.FullReport) *client.InvestigationOutcome {
	out := &client.InvestigationOutcome{
		Members: rep.Members, Edges: rep.Edges, InSite: rep.InSite,
		Verdicts: make([]client.VPVerdict, len(rep.Verdicts)),
	}
	for i, v := range rep.Verdicts {
		out.Verdicts[i] = client.VPVerdict{
			ID: v.ID, Trusted: v.Trusted, InSite: v.InSite,
			Legitimate: v.Legitimate, Hops: v.Hops,
		}
	}
	return out
}

// The reward bank is shared by every scenario run and the flood test
// in a process, so the 1024-bit RSA keygen is paid once.
var (
	sharedBankOnce sync.Once
	sharedBank     *reward.Bank
	sharedBankErr  error
)

func benchBank() (*reward.Bank, error) {
	sharedBankOnce.Do(func() { sharedBank, sharedBankErr = reward.NewBank(1024) })
	return sharedBank, sharedBankErr
}

// Endpoint-class partition mask bits for the front middleware.
const (
	partEvidence = 1 << iota
	partInvestigate
	partUpload
)

// Scenario runs one declaratively composed city-scale scenario and
// returns its SLO report; any violated structural invariant — acked
// loss, probe divergence from the unfaulted baseline, a shed
// investigation, an unexplained 429, a failed incident, a partition
// leak, a crash that loses an acknowledged record — returns an error
// instead.
func Scenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "viewmap-scenario-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build the cities on disjoint footprints; one shared horizon.
	cities := make([]*scenarioCity, len(cfg.Cities))
	var nextOriginX float64
	totalVehicles := 0
	for i := range cfg.Cities {
		cc := cfg.Cities[i]
		cc.Minutes = cfg.Minutes
		if cc.Seed == 0 {
			cc.Seed = cfg.Seed*31 + int64(i)
		}
		if i > 0 && cc.OriginX == 0 && cc.OriginY == 0 {
			cc.OriginX = nextOriginX
		}
		run, err := NewCityRun(cc)
		if err != nil {
			return nil, fmt.Errorf("sim: scenario city %d: %w", i, err)
		}
		area := run.Area()
		nextOriginX = area.Max.X + 2000 // leave a gap beyond DSRC range
		cs := &scenarioCity{
			run:  run,
			site: geo.RectAround(area.Center(), 2*run.Cfg.SpacingM),
			join: make([]int, cc.Vehicles),
			leave: func() []int {
				l := make([]int, cc.Vehicles)
				for v := range l {
					l[v] = cfg.Minutes
				}
				return l
			}(),
		}
		if i < len(cfg.Faults.CityClockSkew) {
			cs.skew = cfg.Faults.CityClockSkew[i]
			if cs.skew < 0 {
				return nil, fmt.Errorf("sim: city %d: negative clock skew %d", i, cs.skew)
			}
			cs.stale = cfg.Faults.SkewMaxLagMinutes > 0 && cs.skew > cfg.Faults.SkewMaxLagMinutes
		}
		// Churn plan: a leaver departs somewhere in the back half, a
		// joiner arrives somewhere in the front half. Leavers and
		// joiners are disjoint so every vehicle is present for at
		// least one minute.
		perm := rng.Perm(cc.Vehicles)
		nLeave, nJoin := 0, 0
		if cfg.ChurnLeaveFrac > 0 {
			nLeave = int(cfg.ChurnLeaveFrac * float64(cc.Vehicles))
		}
		if cfg.ChurnJoinFrac > 0 {
			nJoin = int(cfg.ChurnJoinFrac * float64(cc.Vehicles))
		}
		for k := 0; k < nLeave && k < len(perm); k++ {
			cs.leave[perm[k]] = cfg.Minutes/2 + rng.Intn(max(cfg.Minutes-cfg.Minutes/2, 1))
		}
		for k := nLeave; k < nLeave+nJoin && k < len(perm); k++ {
			cs.join[perm[k]] = 1 + rng.Intn(max(cfg.Minutes/2, 1))
		}
		cities[i] = cs
		totalVehicles += cc.Vehicles
	}

	bank, err := benchBank()
	if err != nil {
		return nil, err
	}

	// Fault-plan plumbing: the fsync stall rides the durability
	// config's injection seam; partitions ride a front-side middleware
	// keyed by endpoint class; the crash seam swaps the recovered
	// system behind the same front. All are armed and disarmed by
	// minute index.
	var stallNS, stalled atomic.Int64
	var partMask atomic.Int32
	var serverMinute atomic.Int64
	dcfg := server.DurabilityConfig{
		WALPath:             filepath.Join(dir, "ingest.wal"),
		SnapshotInterval:    0,         // checkpoints driven by the scenario
		RetentionInterval:   time.Hour, // no background sweeps
		RetentionMinutes:    cfg.RetentionMinutes,
		ResidentColdMinutes: cfg.ResidentColdMinutes,
		Fsync: func(f *os.File) error {
			if d := stallNS.Load(); d > 0 {
				stalled.Add(1)
				time.Sleep(time.Duration(d))
			}
			return f.Sync()
		},
	}
	scfg := server.Config{
		AuthorityToken: "bench", Bank: bank, Overload: cfg.Overload,
	}
	if cfg.Faults.SkewMaxLagMinutes > 0 {
		scfg.MaxUploadLagMinutes = cfg.Faults.SkewMaxLagMinutes
		scfg.Now = func() time.Time {
			return time.Unix(serverMinute.Load()*int64(vd.SegmentSeconds), 0)
		}
	}
	sys, err := server.OpenDurable(scfg, dcfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	baseline, err := server.NewSystem(server.Config{AuthorityToken: "bench", Bank: bank})
	if err != nil {
		return nil, err
	}
	defer baseline.Close()

	// The handler lives in an atomic holder so a crash-and-recover
	// cycle can swap the recovered system in without restarting the
	// listener — clients keep their connections and circuits.
	var handlerHolder atomic.Value
	handlerHolder.Store(server.Handler(sys))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mask := partMask.Load(); mask != 0 {
			blocked := false
			switch {
			case strings.HasPrefix(r.URL.Path, "/v1/evidence/"):
				blocked = mask&partEvidence != 0
			case strings.HasPrefix(r.URL.Path, "/v1/investigate/"):
				blocked = mask&partInvestigate != 0
			case strings.HasPrefix(r.URL.Path, "/v1/vp/"):
				blocked = mask&partUpload != 0
			}
			if blocked {
				http.Error(w, `{"error":"endpoint class unreachable (partition)"}`, http.StatusServiceUnavailable)
				return
			}
		}
		handlerHolder.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()
	api, err := client.NewAPI(srv.URL, srv.Client())
	if err != nil {
		return nil, err
	}
	// Generous, time-compressed retry policy: a shed batch retries
	// until admitted (capping each backoff at 20 ms keeps the
	// simulated day short), so the acked profile set — and with it the
	// fingerprint — is deterministic; only the shed counters vary.
	api.SetRetryPolicy(200, 2*time.Millisecond, func(d time.Duration) {
		if d > 20*time.Millisecond {
			d = 20 * time.Millisecond
		}
		time.Sleep(d)
	})

	res := &ScenarioResult{
		Cities: len(cities), Minutes: cfg.Minutes, Seed: cfg.Seed,
		VehiclesTotal: totalVehicles, Violations: []string{},
	}
	var latMu sync.Mutex
	var uploadLat, probeLat, evLat []time.Duration

	// Cross-incarnation accounting: server-side counters reset when a
	// crash replaces the system, so the pre-crash view is fetched and
	// folded in here before every abort.
	var accIngestShed, accInvestigateShed, accEvidenceShed uint64
	var accStale int
	accLat := map[string]client.EndpointLatency{}
	foldStats := func(st *client.ServiceStats) {
		accIngestShed += st.Overload.Ingest.Shed
		accInvestigateShed += st.Overload.Investigate.Shed
		accEvidenceShed += st.Overload.Evidence.Shed
		accStale += st.Ingest.Stale
		for _, l := range st.Latency {
			e := accLat[l.Endpoint]
			e.Endpoint = l.Endpoint
			e.Requests += l.Requests
			if l.P50MS > e.P50MS {
				e.P50MS = l.P50MS
			}
			if l.P99MS > e.P99MS {
				e.P99MS = l.P99MS
			}
			accLat[l.Endpoint] = e
		}
	}

	// Coverage bookkeeping: covered[ci][m] marks content minute m of
	// city ci as landed (clock skew and upload partitions shift or
	// defer landings), gating every probe to minutes that exist on
	// both systems. lastCovered feeds the concurrent prober.
	covered := make([][]bool, len(cities))
	lastCovered := make([]int, len(cities))
	for i := range covered {
		covered[i] = make([]bool, cfg.Minutes)
		lastCovered[i] = -1
	}
	markCovered := func(ci, minute int) {
		if minute < 0 || minute >= cfg.Minutes {
			return
		}
		covered[ci][minute] = true
		if minute > lastCovered[ci] {
			lastCovered[ci] = minute
		}
	}

	// probeCompare cross-checks one (city, minute) report served by
	// the faulted system over HTTP against the baseline's direct
	// report.
	probeCompare := func(cs *scenarioCity, m int64, recordLat bool) error {
		t0 := time.Now()
		got, err := api.InvestigateReport("bench",
			cs.site.Min.X, cs.site.Min.Y, cs.site.Max.X, cs.site.Max.Y, m)
		if err != nil {
			return fmt.Errorf("sim: scenario probe minute %d: %w", m, err)
		}
		if recordLat {
			latMu.Lock()
			probeLat = append(probeLat, time.Since(t0))
			latMu.Unlock()
		}
		rep, err := baseline.InvestigateReport("bench", cs.site, m)
		if err != nil {
			return fmt.Errorf("sim: scenario baseline probe minute %d: %w", m, err)
		}
		if want := outcomeFromFullReport(rep); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("sim: minute %d: faulted verdicts diverge from the unfaulted baseline (%d vs %d members)",
				m, got.Members, want.Members)
		}
		latMu.Lock()
		res.ProbesCompared++
		latMu.Unlock()
		return nil
	}

	// watchCompare streams one report from /v1/investigate/watch
	// (fromEpoch zero, so the current state arrives immediately) and
	// cross-checks it two ways: the streamed epoch must equal the
	// serving system's own snapshot epoch (the stream reflects server
	// state — content epochs are commit-order-derived, so they are not
	// comparable across systems fed in different orders), and the
	// streamed viewmap must match the baseline's bit for bit (content
	// is order-independent). Returns the delivered epoch.
	watchCompare := func(cs *scenarioCity, m int64) (uint64, error) {
		var got client.WatchReport
		calls := 0
		err := api.WatchInvestigation("bench",
			cs.site.Min.X, cs.site.Min.Y, cs.site.Max.X, cs.site.Max.Y,
			m, 0, 1, 10*time.Second, func(r client.WatchReport) error {
				got = r
				calls++
				return nil
			})
		if err != nil {
			return 0, fmt.Errorf("sim: scenario watch minute %d: %w", m, err)
		}
		if calls != 1 {
			return 0, fmt.Errorf("sim: scenario watch minute %d delivered %d reports, want 1", m, calls)
		}
		_, direct, err := sys.InvestigateSnapshot("bench", cs.site, m)
		if err != nil {
			return 0, fmt.Errorf("sim: scenario direct snapshot minute %d: %w", m, err)
		}
		if got.Epoch != direct {
			return 0, fmt.Errorf("sim: minute %d: streamed epoch %d diverges from the serving system's %d", m, got.Epoch, direct)
		}
		snap, _, err := baseline.InvestigateSnapshot("bench", cs.site, m)
		if err != nil {
			return 0, fmt.Errorf("sim: scenario baseline snapshot minute %d: %w", m, err)
		}
		if got.Members != snap.Members || got.Edges != snap.Edges || got.InSite != snap.InSite ||
			!reflect.DeepEqual(sortedIDs(got.Legitimate), sortedIDs(snap.Legitimate)) {
			return 0, fmt.Errorf("sim: minute %d: watched viewmap diverges from baseline", m)
		}
		res.WatchReports++
		return got.Epoch, nil
	}

	// checkResident bounds memory in long-horizon mode: after a
	// retention sweep, only the hot horizon plus the cold-reload LRU
	// may be resident. Nothing is in flight at the check points, so
	// the bound is exact.
	checkResident := func(when string) error {
		if cfg.RetentionMinutes == 0 {
			return nil
		}
		limit := cfg.RetentionMinutes + cfg.ResidentColdMinutes
		if n := sys.Store().RetentionStatsSnapshot().ResidentMinutes; n > limit {
			return fmt.Errorf("sim: %s: %d resident minutes exceed the %d-minute horizon plus %d cold",
				when, n, cfg.RetentionMinutes, cfg.ResidentColdMinutes)
		}
		return nil
	}

	// drainJobs pushes one batch set through the upload workers while
	// a prober concurrently investigates already-landed minutes
	// through the same admission layer — the "answers during the
	// storm" invariant.
	drainJobs := func(m int, jobs []uploadJob, probes []probeReq) error {
		jobCh := make(chan uploadJob)
		errCh := make(chan error, cfg.Uploaders+1)
		var wg sync.WaitGroup
		for u := 0; u < cfg.Uploaders; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobCh {
					t0 := time.Now()
					bres, err := api.UploadVPBatch(j.profiles)
					if err != nil {
						errCh <- fmt.Errorf("sim: scenario batch upload minute %d: %w", m, err)
						return
					}
					lat := time.Since(t0)
					if j.expectStale {
						if bres.Stored != 0 || bres.Rejected != len(j.profiles) {
							errCh <- fmt.Errorf("sim: minute %d: stale batch landed through the admission window: %+v", m, bres)
							return
						}
						latMu.Lock()
						uploadLat = append(uploadLat, lat)
						res.StaleRejectedVPs += len(j.profiles)
						latMu.Unlock()
						continue
					}
					if bres.Rejected != 0 || bres.Stored+bres.Duplicates != len(j.profiles) {
						errCh <- fmt.Errorf("sim: scenario batch result %+v for %d profiles", bres, len(j.profiles))
						return
					}
					latMu.Lock()
					uploadLat = append(uploadLat, lat)
					if j.mirror {
						res.AckedBatches++
						res.AckedVPs += len(j.profiles)
					}
					latMu.Unlock()
					if j.mirror {
						if _, err := baseline.UploadVPBatch(vp.MarshalBatch(j.profiles)); err != nil {
							errCh <- fmt.Errorf("sim: scenario baseline mirror minute %d: %w", m, err)
							return
						}
					}
				}
			}()
		}
		if len(probes) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, pr := range probes {
					if err := probeCompare(cities[pr.ci], int64(pr.minute), true); err != nil {
						errCh <- err
						return
					}
					if pr.cold {
						latMu.Lock()
						res.ColdProbes++
						latMu.Unlock()
					}
				}
			}()
		}
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
		wg.Wait()
		select {
		case err := <-errCh:
			return err
		default:
		}
		return nil
	}

	// executeTrusted lands one plan's authority anchors: trusted
	// uploads are admission-exempt (the authority's clock is the
	// server's), land first, and mirror immediately.
	executeTrusted := func(plan *minutePlan) error {
		for _, tu := range plan.trusted {
			if err := api.UploadTrustedVP("bench", tu.p); err != nil {
				return fmt.Errorf("sim: scenario trusted upload minute %d: %w", tu.minute, err)
			}
			if err := baseline.UploadTrustedVP("bench", tu.p.Marshal()); err != nil {
				return err
			}
			res.AckedVPs++
			markCovered(tu.ci, tu.minute)
		}
		return nil
	}

	// composeMinute builds minute m's offered load: per city, the
	// diurnal fraction of the churn-present fleet fabricates minute
	// m-skew content and uploads it. All randomness is drawn here, in
	// city order, so the workload stays a pure function of the seed
	// whatever the fault plan does with the plan afterwards.
	composeMinute := func(m int) (*minutePlan, error) {
		plan := &minutePlan{}
		for ci, cs := range cities {
			contentMinute := m - cs.skew
			if contentMinute < 0 {
				continue // the skewed fleet's day has not started yet
			}
			mp, err := cs.run.ProfilesForMinute(contentMinute, false)
			if err != nil {
				return nil, err
			}
			var present []int
			for v := 0; v < cs.run.Cfg.Vehicles; v++ {
				if cs.join[v] <= m && m < cs.leave[v] {
					present = append(present, v)
				}
			}
			frac := diurnalFraction(cfg.Diurnal, m, cfg.Minutes)
			want := int(math.Ceil(frac * float64(len(present))))
			if want < 2 {
				want = min(2, len(present))
			}
			perm := rng.Perm(len(present))
			active := make([]*vp.Profile, 0, want)
			for _, pi := range perm[:want] {
				active = append(active, mp.Profiles[present[pi]])
			}
			if len(active) == 0 {
				continue // the whole fleet churned away this minute
			}
			ti := core.MarkTrustedNearest(active, cs.site.Center())
			plan.trusted = append(plan.trusted, trustedAnchor{p: active[ti], ci: ci, minute: contentMinute})
			res.OfferedVPs++
			anonProfiles := make([]*vp.Profile, 0, len(active)-1)
			for i, p := range active {
				if i != ti {
					anonProfiles = append(anonProfiles, p)
				}
			}
			for off := 0; off < len(anonProfiles); off += cfg.BatchSize {
				end := min(off+cfg.BatchSize, len(anonProfiles))
				plan.jobs = append(plan.jobs, uploadJob{
					profiles: anonProfiles[off:end], ci: ci, minute: contentMinute,
					mirror: !cs.stale, expectStale: cs.stale,
				})
				if !cs.stale {
					res.OfferedVPs += end - off
				}
			}
		}
		return plan, nil
	}

	// pending holds minute plans deferred by an upload partition,
	// drained in order at the heal. healWatch remembers the last
	// investigate-partitioned minute for the post-heal watch-resume
	// check.
	var pending []*minutePlan
	drainPending := func(m int) error {
		for _, plan := range pending {
			if err := executeTrusted(plan); err != nil {
				return err
			}
			if err := drainJobs(m, plan.jobs, nil); err != nil {
				return err
			}
		}
		pending = nil
		return nil
	}
	healWatch := -1
	prevInvPart := false

	for m := 0; m < cfg.Minutes; m++ {
		serverMinute.Store(int64(m))
		// Arm this minute's faults.
		inStall := within(m, cfg.Faults.FsyncStallFrom, cfg.Faults.FsyncStallMinutes)
		if inStall {
			stallNS.Store(int64(cfg.Faults.FsyncStallDelay))
		} else {
			stallNS.Store(0)
		}
		inEvPart := within(m, cfg.Faults.PartitionFrom, cfg.Faults.PartitionMinutes)
		inInvPart := within(m, cfg.Faults.InvestigatePartitionFrom, cfg.Faults.InvestigatePartitionMinutes)
		inUpPart := within(m, cfg.Faults.UploadPartitionFrom, cfg.Faults.UploadPartitionMinutes)
		var mask int32
		if inEvPart {
			mask |= partEvidence
		}
		if inInvPart {
			mask |= partInvestigate
		}
		if inUpPart {
			mask |= partUpload
		}
		partMask.Store(mask)

		// Heal transitions: an upload partition that just lifted
		// releases the deferred minutes before new traffic; an
		// investigate partition that just lifted must let a watch on a
		// partitioned minute resume with the full report, and deliver
		// nothing when resumed from that epoch.
		if !inUpPart && len(pending) > 0 {
			if err := drainPending(m); err != nil {
				return nil, err
			}
		}
		if prevInvPart && !inInvPart && healWatch >= 0 {
			epoch, err := watchCompare(cities[0], int64(healWatch))
			if err != nil {
				return nil, fmt.Errorf("sim: post-heal watch: %w", err)
			}
			calls := 0
			if err := api.WatchInvestigation("bench",
				cities[0].site.Min.X, cities[0].site.Min.Y, cities[0].site.Max.X, cities[0].site.Max.Y,
				int64(healWatch), epoch, 1, 300*time.Millisecond,
				func(client.WatchReport) error { calls++; return nil }); err != nil {
				return nil, fmt.Errorf("sim: post-heal watch resume: %w", err)
			}
			if calls != 0 {
				return nil, fmt.Errorf("sim: post-heal watch re-delivered %d reports for unchanged content", calls)
			}
			healWatch = -1
		}
		prevInvPart = inInvPart

		plan, err := composeMinute(m)
		if err != nil {
			return nil, err
		}

		if inUpPart {
			// The upload plane is dark: a canary must bounce at the
			// front, the minute's traffic defers to the heal, and
			// investigations keep answering — gates are isolated.
			if len(plan.jobs) > 0 {
				if _, err := api.UploadVPBatch(plan.jobs[0].profiles); err == nil {
					return nil, fmt.Errorf("sim: minute %d: batch upload answered through the partition", m)
				}
				res.PartitionRejects++
			}
			if len(plan.trusted) > 0 {
				if err := api.UploadTrustedVP("bench", plan.trusted[0].p); err == nil {
					return nil, fmt.Errorf("sim: minute %d: trusted upload answered through the partition", m)
				}
				res.PartitionRejects++
			}
			pending = append(pending, plan)
			if !inInvPart {
				for ci, cs := range cities {
					if lastCovered[ci] >= 0 {
						if err := probeCompare(cs, int64(lastCovered[ci]), true); err != nil {
							return nil, fmt.Errorf("sim: probe during upload partition: %w", err)
						}
					}
				}
			}
		} else {
			// Concurrent probe targets: each city's last fully-landed
			// minute, plus — in long-horizon mode — an evicted minute,
			// so cold reads race the hot storm.
			var probes []probeReq
			if !inInvPart {
				for ci := range cities {
					if lastCovered[ci] >= 0 {
						probes = append(probes, probeReq{ci: ci, minute: lastCovered[ci]})
					}
				}
				if cfg.RetentionMinutes > 0 {
					if cold := m - cfg.RetentionMinutes - 1; cold >= 0 {
						for ci := range cities {
							if covered[ci][cold] {
								probes = append(probes, probeReq{ci: ci, minute: cold, cold: true})
							}
						}
					}
				}
			}

			if err := executeTrusted(plan); err != nil {
				return nil, err
			}
			jobs := plan.jobs
			// Burst-ring saturation: duplicate storms ride the
			// slow-disk window.
			if inStall && cfg.Faults.SaturateFactor > 0 {
				unique := len(jobs)
				for k := 0; k < cfg.Faults.SaturateFactor; k++ {
					for _, j := range jobs[:unique] {
						jobs = append(jobs, uploadJob{
							profiles: j.profiles, ci: j.ci, minute: j.minute,
							expectStale: j.expectStale,
						})
					}
				}
			}
			rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

			if cfg.Faults.CrashAtMinute > 0 && m == cfg.Faults.CrashAtMinute {
				// Crash-and-recover window: drain half the minute,
				// park one acknowledged-but-uncommitted batch in the
				// WAL, kill the system, recover from disk, swap the
				// recovered system behind the live front, and resume.
				half := len(jobs) / 2
				if err := drainJobs(m, jobs[:half], probes); err != nil {
					return nil, err
				}
				st, err := api.StatsFull()
				if err != nil {
					return nil, fmt.Errorf("sim: pre-crash stats: %w", err)
				}
				foldStats(st)
				crashIdx := -1
				for i := half; i < len(jobs); i++ {
					if jobs[i].mirror && !jobs[i].expectStale {
						crashIdx = i
						break
					}
				}
				if crashIdx >= 0 {
					if err := sys.CrashAppendAbort([][]byte{vp.MarshalBatch(jobs[crashIdx].profiles)}); err != nil {
						return nil, fmt.Errorf("sim: crash injection: %w", err)
					}
				} else {
					sys.Abort()
				}
				recovered, err := server.OpenDurable(scfg, dcfg)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario recovery: %w", err)
				}
				sys = recovered
				d := sys.DurabilityStatsSnapshot()
				res.Crashes++
				res.WALReplayed += d.Replayed
				if crashIdx >= 0 && d.Replayed < 1 {
					return nil, fmt.Errorf("sim: recovery replayed nothing; the parked crash-window batch was lost")
				}
				handlerHolder.Store(server.Handler(sys))
				// The rest of the minute — including the parked batch,
				// whose retry must land as pure duplicates — drains
				// against the recovered system.
				if err := drainJobs(m, jobs[half:], nil); err != nil {
					return nil, err
				}
			} else {
				if err := drainJobs(m, jobs, probes); err != nil {
					return nil, err
				}
			}

			// Hot probe: the minutes that just landed, on both systems.
			if !inInvPart {
				for ci, cs := range cities {
					cm := m - cs.skew
					if cm >= 0 && covered[ci][cm] {
						if err := probeCompare(cs, int64(cm), true); err != nil {
							return nil, err
						}
					}
				}
			}
		}

		if inInvPart {
			// Investigation plane is dark: report and watch canaries
			// must bounce at the front while uploads land; the minute
			// is remembered for the post-heal resume check.
			probeMinute := int64(max(lastCovered[0], 0))
			if _, err := api.InvestigateReport("bench",
				cities[0].site.Min.X, cities[0].site.Min.Y, cities[0].site.Max.X, cities[0].site.Max.Y,
				probeMinute); err == nil {
				return nil, fmt.Errorf("sim: minute %d: investigation answered through the partition", m)
			}
			res.PartitionRejects++
			if err := api.WatchInvestigation("bench",
				cities[0].site.Min.X, cities[0].site.Min.Y, cities[0].site.Max.X, cities[0].site.Max.Y,
				probeMinute, 0, 1, 500*time.Millisecond,
				func(client.WatchReport) error { return nil }); err == nil {
				return nil, fmt.Errorf("sim: minute %d: watch answered through the partition", m)
			}
			res.PartitionRejects++
			if lastCovered[0] >= 0 {
				healWatch = lastCovered[0]
			}
		}

		// Incidents: solicitation plus the correlated board-poll spike.
		for _, inc := range cfg.Incidents {
			if inc.Minute != m {
				continue
			}
			if inc.City < 0 || inc.City >= len(cities) {
				return nil, fmt.Errorf("sim: incident city %d out of range", inc.City)
			}
			cs := cities[inc.City]
			units := inc.Units
			if units <= 0 {
				units = 2
			}
			target := int64(m - inc.TargetMinuteOffset)
			if target < 0 {
				target = 0
			}
			if _, err := api.OpenSolicitation("bench",
				cs.site.Min.X, cs.site.Min.Y, cs.site.Max.X, cs.site.Max.Y,
				target, units); err != nil {
				return nil, fmt.Errorf("sim: incident solicitation minute %d: %w", m, err)
			}
			res.Incidents++
			polls := inc.Polls
			if polls <= 0 {
				polls = 4
			}
			var pw sync.WaitGroup
			pollErr := make(chan error, polls)
			for p := 0; p < polls; p++ {
				pw.Add(1)
				go func() {
					defer pw.Done()
					t0 := time.Now()
					if _, err := api.EvidenceBoard(); err != nil {
						pollErr <- fmt.Errorf("sim: incident board poll minute %d: %w", m, err)
						return
					}
					latMu.Lock()
					evLat = append(evLat, time.Since(t0))
					latMu.Unlock()
				}()
			}
			pw.Wait()
			select {
			case err := <-pollErr:
				return nil, err
			default:
			}
		}

		// Partition check: inside the evidence window the board must
		// be unreachable — a poll that succeeds means the partition
		// middleware leaked.
		if inEvPart {
			if _, err := api.EvidenceBoard(); err == nil {
				return nil, fmt.Errorf("sim: minute %d: evidence board answered through the partition", m)
			}
			res.PartitionRejects++
		}

		// Checkpoint cadence, honoring the snapshotter pause.
		if (m+1)%cfg.SnapshotEvery == 0 {
			if within(m, cfg.Faults.SnapshotPauseFrom, cfg.Faults.SnapshotPauseMinutes) {
				res.SnapshotsSkipped++
			} else {
				if err := sys.Checkpoint(); err != nil {
					return nil, err
				}
				res.SnapshotsWritten++
			}
		}

		// Long-horizon retention: spill aged minutes every step, and
		// periodically verify an evicted minute end to end through the
		// watch stream (cold report probes already race the drain).
		if cfg.RetentionMinutes > 0 {
			if _, err := sys.Store().ApplyRetention(); err != nil {
				return nil, err
			}
			if err := checkResident(fmt.Sprintf("minute %d", m)); err != nil {
				return nil, err
			}
			if cold := m - cfg.RetentionMinutes - 1; cold >= 0 && !inInvPart && cold%5 == 0 && covered[0][cold] {
				if _, err := watchCompare(cities[0], int64(cold)); err != nil {
					return nil, fmt.Errorf("sim: cold watch: %w", err)
				}
			}
		}
	}

	// Disarm every fault, then release anything a partition window
	// running to the end of the horizon still holds.
	stallNS.Store(0)
	partMask.Store(0)
	res.StalledFsyncs = stalled.Load()
	if len(pending) > 0 {
		if err := drainPending(cfg.Minutes); err != nil {
			return nil, err
		}
	}
	if healWatch >= 0 {
		if _, err := watchCompare(cities[0], int64(healWatch)); err != nil {
			return nil, fmt.Errorf("sim: post-run heal watch: %w", err)
		}
	}

	// Final pass: every covered (city, minute) must answer bit-for-bit
	// like the baseline; the digest over these outcomes is the
	// fingerprint.
	h := sha256.New()
	for ci, cs := range cities {
		for m := 0; m < cfg.Minutes; m++ {
			if !covered[ci][m] {
				continue
			}
			if err := probeCompare(cs, int64(m), false); err != nil {
				return nil, fmt.Errorf("sim: final pass: %w", err)
			}
			rep, err := baseline.InvestigateReport("bench", cs.site, int64(m))
			if err != nil {
				return nil, err
			}
			binary.Write(h, binary.BigEndian, int64(ci))
			binary.Write(h, binary.BigEndian, int64(m))
			binary.Write(h, binary.BigEndian, int64(rep.Members))
			binary.Write(h, binary.BigEndian, int64(rep.Edges))
			binary.Write(h, binary.BigEndian, int64(rep.InSite))
			for _, v := range rep.Verdicts {
				h.Write(v.ID[:])
				binary.Write(h, binary.BigEndian, v.Legitimate)
				binary.Write(h, binary.BigEndian, v.Trusted)
				binary.Write(h, binary.BigEndian, v.InSite)
				binary.Write(h, binary.BigEndian, int64(v.Hops))
			}
		}
	}
	res.ProbeDigest = hex.EncodeToString(h.Sum(nil))
	if err := checkResident("final pass"); err != nil {
		return nil, err
	}

	// Structural invariants, with counters folded across incarnations.
	stats, err := api.StatsFull()
	if err != nil {
		return nil, err
	}
	foldStats(stats)
	res.IngestShed = accIngestShed
	res.InvestigateShed = accInvestigateShed
	res.EvidenceShed = accEvidenceShed
	res.Client429s = api.Seen429()
	if res.InvestigateShed != 0 {
		return nil, fmt.Errorf("sim: %d investigations shed — the investigate gate must never starve", res.InvestigateShed)
	}
	if total := res.IngestShed + res.EvidenceShed; res.Client429s != total {
		return nil, fmt.Errorf("sim: clients saw %d x 429 but the server shed %d — counters diverge", res.Client429s, total)
	}
	if accStale != res.StaleRejectedVPs {
		return nil, fmt.Errorf("sim: server counted %d stale rejections, clients observed %d — counters diverge", accStale, res.StaleRejectedVPs)
	}
	sysLen, baseLen := sys.Store().Len(), baseline.Store().Len()
	res.ZeroAckedLoss = sysLen == res.OfferedVPs && baseLen == res.OfferedVPs && res.AckedVPs == res.OfferedVPs
	if !res.ZeroAckedLoss {
		return nil, fmt.Errorf("sim: acked loss: offered %d, acked %d, stored %d (baseline %d)",
			res.OfferedVPs, res.AckedVPs, sysLen, baseLen)
	}

	// SLO grading.
	res.Upload.Requests = len(uploadLat)
	res.Upload.P50MS, res.Upload.P99MS = latencyPercentilesMS(uploadLat)
	res.Investigate.Requests = len(probeLat)
	res.Investigate.P50MS, res.Investigate.P99MS = latencyPercentilesMS(probeLat)
	res.EvidencePoll.Requests = len(evLat)
	res.EvidencePoll.P50MS, res.EvidencePoll.P99MS = latencyPercentilesMS(evLat)
	// Server-side view of the same paths, merged across incarnations.
	for _, l := range accLat {
		slo := EndpointSLO{Requests: int(l.Requests), P50MS: l.P50MS, P99MS: l.P99MS}
		switch l.Endpoint {
		case "/v1/vp/batch":
			res.ServerUpload = slo
		case "/v1/investigate/report":
			res.ServerInvestigate = slo
		}
	}
	if lim := cfg.SLO.UploadP99; lim > 0 && res.Upload.P99MS > float64(lim.Microseconds())/1e3 {
		res.Violations = append(res.Violations, fmt.Sprintf("upload p99 %.1f ms exceeds %v", res.Upload.P99MS, lim))
	}
	if lim := cfg.SLO.InvestigateP99; lim > 0 && res.Investigate.P99MS > float64(lim.Microseconds())/1e3 {
		res.Violations = append(res.Violations, fmt.Sprintf("investigate p99 %.1f ms exceeds %v", res.Investigate.P99MS, lim))
	}
	if lim := cfg.SLO.EvidenceP99; lim > 0 && res.EvidencePoll.P99MS > float64(lim.Microseconds())/1e3 {
		res.Violations = append(res.Violations, fmt.Sprintf("evidence p99 %.1f ms exceeds %v", res.EvidencePoll.P99MS, lim))
	}
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("sim: SLO violated: %s", strings.Join(res.Violations, "; "))
	}

	err = sys.Close()
	sys = nil
	return res, err
}

// diurnalFraction evaluates the activity curve at minute m: the
// configured per-minute series (cycled), or the built-in sinusoidal
// day between 0.2 and 1.0.
func diurnalFraction(curve []float64, m, minutes int) float64 {
	if len(curve) > 0 {
		f := curve[m%len(curve)]
		if f <= 0 {
			return 0.1
		}
		if f > 1 {
			return 1
		}
		return f
	}
	return 0.6 + 0.4*math.Sin(2*math.Pi*float64(m)/float64(max(minutes, 2)))
}
