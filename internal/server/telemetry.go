package server

import (
	"log"
	"net/http"
	"sort"
	"time"

	"viewmap/internal/obs"
)

// HTTP-layer telemetry: the withTelemetry middleware times every
// request into the per-endpoint latency histogram, mints the trace
// that rides the ingest pipeline (burst rings, WAL group commit), and
// emits one structured log line — with the full per-stage span
// breakdown — for requests slower than the configured threshold.
// GET /v1/metrics serves every histogram in Prometheus text format;
// the latency/pipeline blocks of GET /v1/stats serve the same data as
// pre-computed quantiles. docs/observability.md is the catalog.

// knownEndpoints lists the HTTP paths that get their own latency
// histogram — the route table's; anything else (typos, probes) shares
// the "other" series, so label cardinality is fixed at compile time.
func knownEndpoints() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.path
	}
	return out
}

// withTelemetry wraps the whole HTTP surface (outside admission, so
// queueing shows up in the request latency): it mints a trace, hands
// it to the handler through the request context, times the request
// into the endpoint histogram, and logs slow requests with their span
// breakdown. With metrics disabled and no slow-request threshold the
// middleware is two branch tests per request.
func withTelemetry(sys *System, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sys.metrics.Enabled() && sys.slowRequest <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		tr := obs.StartTrace()
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		elapsed := time.Since(tr.Start())
		sys.metrics.Endpoint(r.URL.Path).Record(int64(elapsed))
		if sys.slowRequest > 0 && elapsed >= sys.slowRequest {
			log.Printf("slow-request trace=%d method=%s path=%s elapsed=%s spans=%q",
				tr.ID(), r.Method, r.URL.Path, elapsed.Round(time.Microsecond), tr.Spans())
		}
	})
}

// EndpointLatency is one endpoint's request-latency summary in
// GET /v1/stats (quantiles are bucket upper bounds; see obs.Quantile
// for the ≤2× bracket they carry).
type EndpointLatency struct {
	// Endpoint is the request path ("other" for unregistered paths).
	Endpoint string
	// Requests counts recorded requests.
	Requests uint64
	// P50 and P99 are latency quantile estimates.
	P50, P99 time.Duration
}

// LatencyStats summarizes the per-endpoint latency histograms, sorted
// by path; empty when metrics are disabled.
func (sys *System) LatencyStats() []EndpointLatency {
	snaps := sys.metrics.EndpointSnapshots()
	paths := make([]string, 0, len(snaps))
	for p := range snaps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]EndpointLatency, 0, len(paths))
	for _, p := range paths {
		s := snaps[p]
		out = append(out, EndpointLatency{
			Endpoint: p,
			Requests: s.Count,
			P50:      time.Duration(s.Quantile(0.50)),
			P99:      time.Duration(s.Quantile(0.99)),
		})
	}
	return out
}

// StageLatency is one ingest-pipeline stage's summary in GET /v1/stats.
type StageLatency struct {
	// Stage is the stage label (obs.Stage.String).
	Stage string
	// Count is the number of recorded spans.
	Count uint64
	// P50 and P99 are span quantile estimates.
	P50, P99 time.Duration
	// Total is the cumulative recorded span time.
	Total time.Duration
}

// WALBatchStats summarizes the group-commit batch-size histogram.
type WALBatchStats struct {
	// Commits counts group-commit fsyncs observed.
	Commits uint64
	// P50Records and P99Records are batch-size quantile estimates
	// (records made durable per fsync).
	P50Records, P99Records uint64
}

// PipelineStats is the ingest-pipeline block of GET /v1/stats.
type PipelineStats struct {
	// Stages holds one summary per pipeline stage, in pipeline order.
	Stages []StageLatency
	// WALCommitBatch summarizes records per group-commit fsync.
	WALCommitBatch WALBatchStats
}

// PipelineStatsSnapshot summarizes the per-stage histograms; the zero
// value when metrics are disabled.
func (sys *System) PipelineStatsSnapshot() PipelineStats {
	var out PipelineStats
	if !sys.metrics.Enabled() {
		return out
	}
	snaps := sys.metrics.StageSnapshots()
	out.Stages = make([]StageLatency, 0, len(snaps))
	for i, s := range snaps {
		out.Stages = append(out.Stages, StageLatency{
			Stage: obs.Stage(i).String(),
			Count: s.Count,
			P50:   time.Duration(s.Quantile(0.50)),
			P99:   time.Duration(s.Quantile(0.99)),
			Total: time.Duration(s.Sum),
		})
	}
	wb := sys.metrics.WALBatchSnapshot()
	out.WALCommitBatch = WALBatchStats{
		Commits:    wb.Count,
		P50Records: wb.Quantile(0.50),
		P99Records: wb.Quantile(0.99),
	}
	return out
}

// Metrics returns the system's observability registry (always non-nil;
// disabled under Config.DisableMetrics). Exposed for the exposition
// handler and tests.
func (sys *System) Metrics() *obs.Registry {
	return sys.metrics
}
