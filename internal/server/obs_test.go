package server

// End-to-end observability tests over live HTTP against a durable
// system: the Prometheus exposition, the stats latency/pipeline
// blocks, and the /v1/stats wire shape agreeing with /v1/metrics.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/obs"
	"viewmap/internal/vp"
)

// obsUploadBatch posts one minute's population over HTTP (so the
// telemetry middleware mints the trace the pipeline stages ride).
func obsUploadBatch(t *testing.T, ts *httptest.Server, minute int64, n int, seed int64) {
	t.Helper()
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{
		N: n, Area: durArea, Minute: minute, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, durArea.Center())
	req, _ := http.NewRequest("POST", ts.URL+"/v1/vp/trusted", bytes.NewReader(profiles[ti].Marshal()))
	req.Header.Set(authorityHeader, "t")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trusted upload status %d", resp.StatusCode)
	}
	anon := make([]*vp.Profile, 0, len(profiles)-1)
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/vp/batch", "application/octet-stream",
		bytes.NewReader(vp.MarshalBatch(anon)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch upload status %d", resp.StatusCode)
	}
}

// TestMetricsEndToEnd runs a durable system over live HTTP and checks
// the whole exposition chain: per-endpoint and per-stage series on
// /v1/metrics, the latency/pipeline blocks and the new fsync/eviction
// counters on /v1/stats.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(
		Config{AuthorityToken: "t", Bank: durBank(t)},
		DurabilityConfig{WALPath: filepath.Join(dir, "ingest.wal"), RetentionMinutes: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(Handler(sys))
	defer ts.Close()

	for m := int64(0); m < 4; m++ {
		obsUploadBatch(t, ts, m, 8, 42+m)
	}
	// Age minutes past the horizon so the eviction counters move.
	if _, err := sys.Store().ApplyRetention(); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition.
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/v1/metrics content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE " + obs.MetricHTTPRequestSeconds + " histogram",
		obs.MetricHTTPRequestSeconds + `_count{endpoint="/v1/vp/batch"} 4`,
		obs.MetricIngestStageSeconds + `_count{stage="decode"}`,
		obs.MetricIngestStageSeconds + `_count{stage="ring_wait"}`,
		obs.MetricIngestStageSeconds + `_count{stage="link_stage"}`,
		obs.MetricIngestStageSeconds + `_count{stage="commit"}`,
		obs.MetricIngestStageSeconds + `_count{stage="wal_append"}`,
		obs.MetricIngestStageSeconds + `_count{stage="fsync"}`,
		obs.MetricWALCommitBatchRecords + "_count",
		obs.MetricAdmissionQueueDepth + `_count{class="ingest"}`,
		"# TYPE " + obs.MetricTrustRankIterations + " histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Stats blocks.
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var batchLat *endpointLatencyJSON
	for i := range stats.Latency {
		if stats.Latency[i].Endpoint == "/v1/vp/batch" {
			batchLat = &stats.Latency[i]
		}
	}
	if batchLat == nil || batchLat.Requests != 4 || batchLat.P99MS <= 0 {
		t.Fatalf("latency block for /v1/vp/batch: %+v", batchLat)
	}
	if len(stats.Pipeline.Stages) != int(obs.NumStages) {
		t.Fatalf("pipeline has %d stages", len(stats.Pipeline.Stages))
	}
	for _, st := range stats.Pipeline.Stages {
		if st.Count == 0 {
			t.Fatalf("stage %q recorded nothing", st.Stage)
		}
	}
	if stats.Pipeline.WALCommitBatch.Commits == 0 ||
		stats.Pipeline.WALCommitBatch.P99Records == 0 {
		t.Fatalf("walCommitBatch block: %+v", stats.Pipeline.WALCommitBatch)
	}
	if stats.Durability.Fsyncs == 0 || stats.Durability.FsyncTotalMS < 0 {
		t.Fatalf("durability fsync counters: %+v", stats.Durability)
	}
	if stats.Retention.Evictions == 0 || stats.Retention.EvictionTotalMS <= 0 {
		t.Fatalf("retention eviction counters: %+v", stats.Retention)
	}
}

// statsWirePaths is every key path of GET /v1/stats on a healthy,
// durable server that has stored, served and verified something: the
// paths of docs/http-api.md's example. "[]" stands for any element of
// an array and "<mode>" for a TrustRank restart mode; lastError is
// omitted while healthy.
var statsWirePaths = []string{
	"durability.appendedLSN", "durability.enabled", "durability.fsyncTotalMs",
	"durability.fsyncs", "durability.lastSnapshotMs", "durability.replayed",
	"durability.snapshotLSN", "durability.snapshotTotalMs", "durability.snapshots",
	"durability.syncedLSN",
	"evidence.deliveriesAccepted", "evidence.deliveriesRejected",
	"evidence.openSolicitations", "evidence.released", "evidence.unitsMinted",
	"evidence.unitsRedeemed",
	"ingest.duplicates", "ingest.quarantined", "ingest.rejected", "ingest.stale",
	"ingest.wireRejected",
	"latency[].endpoint", "latency[].p50Ms", "latency[].p99Ms", "latency[].requests",
	"minutes",
	"overload.evidence.active", "overload.evidence.admitted", "overload.evidence.queued",
	"overload.evidence.shed",
	"overload.ingest.active", "overload.ingest.admitted", "overload.ingest.queued",
	"overload.ingest.shed",
	"overload.investigate.active", "overload.investigate.admitted",
	"overload.investigate.queued", "overload.investigate.shed",
	"overload.retryAfterSeconds",
	"pipeline.stages[].count", "pipeline.stages[].p50Us", "pipeline.stages[].p99Us",
	"pipeline.stages[].stage", "pipeline.stages[].totalMs",
	"pipeline.walCommitBatch.commits", "pipeline.walCommitBatch.p50Records",
	"pipeline.walCommitBatch.p99Records",
	"retention.coldResident", "retention.evictedMinutes", "retention.evictionTotalMs",
	"retention.evictions", "retention.reloadTotalMs", "retention.reloads",
	"retention.residentMinutes",
	"shards[].epoch", "shards[].minute", "shards[].quarantined", "shards[].vps",
	"trusted",
	"trustrank.<mode>.p50Iterations", "trustrank.<mode>.p99Iterations",
	"trustrank.<mode>.verifications",
	"vps",
}

// wirePaths collects the leaf key paths of a decoded JSON value.
func wirePaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			if prefix == "trustrank" {
				k = "<mode>"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			wirePaths(p, c, into)
		}
	case []any:
		for _, c := range v {
			wirePaths(prefix+"[]", c, into)
		}
	default:
		into[prefix] = true
	}
}

// getStats reads GET /v1/stats as a generic JSON tree.
func getStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// promSeries returns the value of one exposition line ("name{labels}
// value"), failing the test when the series is absent.
func promSeries(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s:\n%s", series, exposition)
	return 0
}

// TestStatsWireAgreesWithMetrics pins the GET /v1/stats wire shape and
// checks that its counters agree with GET /v1/metrics over live HTTP
// against a durable system: the key paths match the documented
// example, empty collections are [] rather than null, and the fsync
// and TrustRank counters equal their exposition series when no ingest
// runs between the two reads.
func TestStatsWireAgreesWithMetrics(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(
		Config{AuthorityToken: "t", Bank: durBank(t)},
		DurabilityConfig{WALPath: filepath.Join(dir, "ingest.wal")},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(Handler(sys))
	defer ts.Close()

	fresh := getStats(t, ts)
	for _, key := range []string{"latency", "shards"} {
		if arr, ok := fresh[key].([]any); !ok || len(arr) != 0 {
			t.Fatalf("fresh %s = %#v, want []", key, fresh[key])
		}
	}

	for m := int64(0); m < 2; m++ {
		obsUploadBatch(t, ts, m, 8, 42+m)
	}
	body, _ := json.Marshal(map[string]any{"site": siteJSON(durSite), "minute": 0})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/investigate", bytes.NewReader(body))
	req.Header.Set(authorityHeader, "t")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("investigate status %d", resp.StatusCode)
	}

	stats := getStats(t, ts)
	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(raw)

	seen := make(map[string]bool)
	wirePaths("", stats, seen)
	got := make([]string, 0, len(seen))
	for p := range seen {
		got = append(got, p)
	}
	sort.Strings(got)
	want := append([]string(nil), statsWirePaths...)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stats key paths:\n got %q\nwant %q", got, want)
	}

	dur := stats["durability"].(map[string]any)
	fsyncs := promSeries(t, exposition, obs.MetricIngestStageSeconds+`_count{stage="fsync"}`)
	if dur["fsyncs"].(float64) != fsyncs || fsyncs == 0 {
		t.Fatalf("durability.fsyncs %v, fsync stage count %v", dur["fsyncs"], fsyncs)
	}
	// Both sides render one nanosecond total, in milliseconds and in
	// seconds; compare it in whole nanoseconds, where neither decimal
	// rendering can round.
	sumS := promSeries(t, exposition, obs.MetricIngestStageSeconds+`_sum{stage="fsync"}`)
	if gotNS, wantNS := math.Round(dur["fsyncTotalMs"].(float64)*1e6), math.Round(sumS*1e9); gotNS != wantNS {
		t.Fatalf("durability.fsyncTotalMs %v, fsync stage _sum %v s", dur["fsyncTotalMs"], sumS)
	}
	modes := stats["trustrank"].(map[string]any)
	for _, mode := range []string{obs.TrustRankWarm, obs.TrustRankCold} {
		n := promSeries(t, exposition, obs.MetricTrustRankIterations+`_count{mode="`+mode+`"}`)
		var v float64
		if m, ok := modes[mode].(map[string]any); ok {
			v = m["verifications"].(float64)
		}
		if v != n {
			t.Fatalf("trustrank.%s.verifications %v, iterations count %v", mode, v, n)
		}
	}
	if len(modes) == 0 {
		t.Fatal("no TrustRank verification recorded after an investigation")
	}
}
