package server

// End-to-end observability tests: the Prometheus exposition and the
// stats latency/pipeline blocks over live HTTP against a durable
// system, the never-gated classification of /v1/metrics, and the
// disabled-metrics configuration rendering empty.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

// TestMetricsDisabled: with Config.DisableMetrics (viewmap-server
// -no-metrics) the exposition renders no series and the stats latency
// block stays empty.
func TestMetricsDisabled(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: durBank(t), DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	uploadMinute(t, 0, 8, 42, sys)
	ts := httptest.NewServer(Handler(sys))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "_count{") {
		t.Fatalf("disabled exposition has series:\n%s", body)
	}
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
	if len(stats.Latency) != 0 || len(stats.Pipeline.Stages) != 0 {
		t.Fatalf("disabled stats carry telemetry: %d latency rows, %d stages",
			len(stats.Latency), len(stats.Pipeline.Stages))
	}
}
