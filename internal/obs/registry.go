package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Stage names one instrumented stage of the ingest pipeline, in
// pipeline order: wire decode+validate, burst-ring wait, link-worker
// Stage, CommitStaged under the shard lock, WAL append (including the
// group-commit wait), and the fsync itself.
type Stage int

// The instrumented pipeline stages. NumStages is the array bound for
// per-stage state, not a stage.
const (
	StageDecode Stage = iota
	StageRingWait
	StageLink
	StageCommit
	StageWALAppend
	StageFsync
	NumStages
)

var stageNames = [NumStages]string{
	StageDecode:    "decode",
	StageRingWait:  "ring_wait",
	StageLink:      "link_stage",
	StageCommit:    "commit",
	StageWALAppend: "wal_append",
	StageFsync:     "fsync",
}

// String returns the stage's label as exposed on /v1/metrics and in
// the stats pipeline block.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Metric family names served by the registry's Prometheus exposition.
// cmd/repolint cross-checks this list against the catalog in
// docs/observability.md, both directions: a metric added here without
// a doc row — or documented without existing — fails the docs job.
const (
	// MetricHTTPRequestSeconds is the per-endpoint request latency
	// histogram (label: endpoint), measured around the whole handler
	// including admission queueing.
	MetricHTTPRequestSeconds = "viewmap_http_request_seconds"
	// MetricIngestStageSeconds is the per-stage ingest pipeline
	// latency histogram (label: stage; see Stage for the values).
	MetricIngestStageSeconds = "viewmap_ingest_stage_seconds"
	// MetricWALCommitBatchRecords is the WAL group-commit batch-size
	// histogram: records made durable per fsync.
	MetricWALCommitBatchRecords = "viewmap_wal_commit_batch_records"
	// MetricAdmissionQueueDepth is the admission-gate queue depth
	// histogram (label: class), sampled at every arrival.
	MetricAdmissionQueueDepth = "viewmap_admission_queue_depth"
	// MetricTrustRankIterations is the power-iteration count histogram
	// per verification (label: mode), split by whether the run warm-
	// started from a cached score vector or recomputed cold.
	MetricTrustRankIterations = "viewmap_trustrank_iterations"
)

// TrustRank verification modes, the values of MetricTrustRankIterations's
// mode label.
const (
	TrustRankWarm = "warm"
	TrustRankCold = "cold"
)

// Registry holds the fixed metric families of one server. All
// histograms are created up front — the lookup on the record path is
// a read-only map access or array index, never a lock or an
// allocation. Every method is nil-safe: a nil registry hands out nil
// histograms, whose Record is a nil-check no-op, so stores, WALs and
// admission limiters built outside a server record nothing.
type Registry struct {
	endpoints map[string]*Histogram
	other     *Histogram
	stages    [NumStages]*Histogram
	walBatch  *Histogram
	depth     map[string]*Histogram
	trustrank map[string]*Histogram
}

// NewRegistry builds a registry over the given endpoint paths and
// admission-class names.
func NewRegistry(endpoints, classes []string) *Registry {
	r := &Registry{
		endpoints: make(map[string]*Histogram, len(endpoints)),
		other:     &Histogram{},
		walBatch:  &Histogram{},
		depth:     make(map[string]*Histogram, len(classes)),
		trustrank: map[string]*Histogram{
			TrustRankWarm: {},
			TrustRankCold: {},
		},
	}
	for _, e := range endpoints {
		r.endpoints[e] = &Histogram{}
	}
	for i := range r.stages {
		r.stages[i] = &Histogram{}
	}
	for _, c := range classes {
		r.depth[c] = &Histogram{}
	}
	return r
}

// Endpoint returns the latency histogram for a request path; paths
// not registered up front share the "other" histogram.
func (r *Registry) Endpoint(path string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.endpoints[path]; ok {
		return h
	}
	return r.other
}

// Stage returns the pipeline histogram for one ingest stage.
func (r *Registry) Stage(s Stage) *Histogram {
	if r == nil || s < 0 || s >= NumStages {
		return nil
	}
	return r.stages[s]
}

// WALBatch returns the group-commit batch-size histogram.
func (r *Registry) WALBatch() *Histogram {
	if r == nil {
		return nil
	}
	return r.walBatch
}

// QueueDepth returns the admission-queue-depth histogram for a class,
// or nil for an unknown class.
func (r *Registry) QueueDepth(class string) *Histogram {
	if r == nil {
		return nil
	}
	return r.depth[class]
}

// TrustRank returns the power-iteration-count histogram for one
// verification mode (TrustRankWarm or TrustRankCold), or nil for an
// unknown mode.
func (r *Registry) TrustRank(mode string) *Histogram {
	if r == nil {
		return nil
	}
	return r.trustrank[mode]
}

// TrustRankSnapshots returns one iteration-count snapshot per
// verification mode, keyed by mode, skipping empty ones.
func (r *Registry) TrustRankSnapshots() map[string]Snapshot {
	out := make(map[string]Snapshot)
	if r == nil {
		return out
	}
	for mode, h := range r.trustrank {
		if s := h.Snapshot(); s.Count > 0 {
			out[mode] = s
		}
	}
	return out
}

// EndpointSnapshots returns a merged snapshot per registered endpoint
// path (the catch-all under "other"), skipping empty ones.
func (r *Registry) EndpointSnapshots() map[string]Snapshot {
	out := make(map[string]Snapshot)
	if r == nil {
		return out
	}
	for p, h := range r.endpoints {
		if s := h.Snapshot(); s.Count > 0 {
			out[p] = s
		}
	}
	if s := r.other.Snapshot(); s.Count > 0 {
		out["other"] = s
	}
	return out
}

// StageSnapshots returns one snapshot per pipeline stage, indexed by
// Stage.
func (r *Registry) StageSnapshots() [NumStages]Snapshot {
	var out [NumStages]Snapshot
	if r == nil {
		return out
	}
	for i, h := range r.stages {
		out[i] = h.Snapshot()
	}
	return out
}

// WALBatchSnapshot returns the group-commit batch-size snapshot.
func (r *Registry) WALBatchSnapshot() Snapshot {
	return r.WALBatch().Snapshot()
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered.
// Duration histograms are converted from recorded nanoseconds to
// seconds; size histograms stay in raw counts. A nil registry renders
// the family headers only.
func (r *Registry) WritePrometheus(w io.Writer) {
	var endpoints, stages, batch, depth, tr []labeledHist
	if r != nil {
		endpoints = append(sortedHists(r.endpoints), labeledHist{"other", r.other})
		for i, h := range r.stages {
			stages = append(stages, labeledHist{Stage(i).String(), h})
		}
		batch = []labeledHist{{"", r.walBatch}}
		depth = sortedHists(r.depth)
		tr = sortedHists(r.trustrank)
	}
	writeFamily(w, MetricHTTPRequestSeconds, "endpoint", endpoints, true)
	writeFamily(w, MetricIngestStageSeconds, "stage", stages, true)
	writeFamily(w, MetricWALCommitBatchRecords, "", batch, false)
	writeFamily(w, MetricAdmissionQueueDepth, "class", depth, false)
	writeFamily(w, MetricTrustRankIterations, "mode", tr, false)
}

type labeledHist struct {
	label string
	h     *Histogram
}

// sortedHists lists a labeled family's histograms by label.
func sortedHists(m map[string]*Histogram) []labeledHist {
	out := make([]labeledHist, 0, len(m))
	for label, h := range m {
		out = append(out, labeledHist{label, h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// writeFamily emits one histogram family. Cumulative buckets stop at
// the highest non-empty bucket (a valid exposition — `le` stays
// increasing and +Inf always closes the series), keeping the payload
// proportional to the value range actually observed.
func writeFamily(w io.Writer, name, labelKey string, series []labeledHist, seconds bool) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, s := range series {
		snap := s.h.Snapshot()
		label := ""
		if labelKey != "" {
			label = labelKey + `="` + s.label + `",`
		}
		top := -1
		for b, c := range snap.Buckets {
			if c > 0 {
				top = b
			}
		}
		var cum uint64
		for b := 0; b <= top; b++ {
			cum += snap.Buckets[b]
			fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n",
				name, label, formatBound(BucketUpper(b), seconds), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, label, snap.Count)
		sum := float64(snap.Sum)
		if seconds {
			sum /= 1e9
		}
		if labelKey != "" {
			fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, labelKey, s.label, formatFloat(sum))
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, s.label, snap.Count)
		} else {
			fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
			fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
		}
	}
}

func formatBound(upper uint64, seconds bool) string {
	if !seconds {
		return strconv.FormatUint(upper, 10)
	}
	return formatFloat(float64(upper) / 1e9)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
