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
// that rides the ingest pipeline (minute bursts, WAL group commit), and
// emits one structured log line — with the full per-stage span
// breakdown — for requests slower than the configured threshold.
// GET /v1/metrics serves every histogram in Prometheus text format;
// the latency, pipeline and trustrank blocks of GET /v1/stats serve
// quantiles of the same histograms, and its durability fsync counters
// read the same fsync stage. docs/observability.md is the catalog.

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
// breakdown.
func withTelemetry(sys *System, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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

// latencyJSON builds the latency block of GET /v1/stats from the
// registry's endpoint histograms, sorted by path (quantiles are bucket
// upper bounds; see obs.Quantile for the ≤2× bracket they carry).
func latencyJSON(reg *obs.Registry) []endpointLatencyJSON {
	snaps := reg.EndpointSnapshots()
	out := make([]endpointLatencyJSON, 0, len(snaps))
	for p, s := range snaps {
		out = append(out, endpointLatencyJSON{
			Endpoint: p,
			Requests: s.Count,
			P50MS:    float64(s.Quantile(0.50)) / float64(time.Millisecond),
			P99MS:    float64(s.Quantile(0.99)) / float64(time.Millisecond),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// pipelineJSON builds the pipeline block of GET /v1/stats from the
// registry's stage histograms, in pipeline order, and its WAL
// group-commit batch-size histogram.
func pipelineJSON(reg *obs.Registry) pipelineStatsJSON {
	snaps := reg.StageSnapshots()
	out := pipelineStatsJSON{Stages: make([]pipelineStageJSON, len(snaps))}
	for i, s := range snaps {
		out.Stages[i] = pipelineStageJSON{
			Stage:   obs.Stage(i).String(),
			Count:   s.Count,
			P50US:   float64(s.Quantile(0.50)) / float64(time.Microsecond),
			P99US:   float64(s.Quantile(0.99)) / float64(time.Microsecond),
			TotalMS: float64(s.Sum) / float64(time.Millisecond),
		}
	}
	wb := reg.WALBatchSnapshot()
	out.WALCommitBatch = walBatchJSON{
		Commits:    wb.Count,
		P50Records: wb.Quantile(0.50),
		P99Records: wb.Quantile(0.99),
	}
	return out
}

// Metrics returns the system's observability registry (never nil).
// Exposed for the exposition handler and tests.
func (sys *System) Metrics() *obs.Registry {
	return sys.metrics
}
