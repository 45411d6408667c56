package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRegistryPrometheusExposition drives a small registry and checks
// the text exposition: every family header present, cumulative
// buckets monotone, label sets and unit conversion correct.
func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry([]string{"/v1/vp/batch", "/v1/investigate"}, []string{"ingest", "investigate"})
	r.Endpoint("/v1/vp/batch").Record(int64(3 * time.Millisecond))
	r.Endpoint("/v1/vp/batch").Record(int64(9 * time.Millisecond))
	r.Endpoint("/v1/unknown").Record(int64(time.Millisecond)) // lands in "other"
	r.Stage(StageDecode).Record(int64(40 * time.Microsecond))
	r.WALBatch().Record(7)
	r.QueueDepth("ingest").Record(3)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE " + MetricHTTPRequestSeconds + " histogram",
		"# TYPE " + MetricIngestStageSeconds + " histogram",
		"# TYPE " + MetricWALCommitBatchRecords + " histogram",
		"# TYPE " + MetricAdmissionQueueDepth + " histogram",
		MetricHTTPRequestSeconds + `_count{endpoint="/v1/vp/batch"} 2`,
		MetricHTTPRequestSeconds + `_count{endpoint="other"} 1`,
		MetricIngestStageSeconds + `_count{stage="decode"} 1`,
		MetricWALCommitBatchRecords + `_bucket{le="7"} 1`,
		MetricWALCommitBatchRecords + "_count 1",
		MetricAdmissionQueueDepth + `_count{class="ingest"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestNilRegistry: a nil registry — what a store, WAL or admission
// limiter built outside a server carries — hands out nil histograms,
// records nothing, and renders empty families.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if h := r.Endpoint("/x"); h != nil {
		t.Fatal("nil registry returned a live histogram")
	}
	r.Endpoint("/x").Record(5) // nil receiver: must not panic
	r.Stage(StageFsync).Record(5)
	r.WALBatch().Record(5)
	r.QueueDepth("ingest").Record(5)
	if n := len(r.EndpointSnapshots()); n != 0 {
		t.Fatalf("nil registry snapshotted %d endpoints", n)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "_count{") {
		t.Fatalf("nil registry's exposition has series:\n%s", b.String())
	}
}

// TestRecordPathAllocFree: recording allocates nothing, through a nil
// histogram or through each record-path accessor of a registry,
// including the "other" endpoint fallback.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRegistry([]string{"/v1/vp/batch"}, []string{"ingest"})
	var off *Histogram
	for _, c := range []struct {
		name   string
		record func()
	}{
		{"nil histogram", func() { off.Record(5) }},
		{"known endpoint", func() { r.Endpoint("/v1/vp/batch").Record(5) }},
		{"unknown endpoint", func() { r.Endpoint("/v1/unknown").Record(5) }},
		{"stage", func() { r.Stage(StageFsync).Record(5) }},
		{"wal batch", func() { r.WALBatch().Record(5) }},
		{"queue depth", func() { r.QueueDepth("ingest").Record(5) }},
		{"trustrank", func() { r.TrustRank(TrustRankWarm).Record(5) }},
	} {
		if n := testing.AllocsPerRun(100, c.record); n != 0 {
			t.Errorf("%s: %v allocations per record, want 0", c.name, n)
		}
	}
}

// TestTraceSpansAndContext covers the trace lifecycle: minting,
// context round-trip, concurrent-safe span accumulation, and the
// slow-log rendering order.
func TestTraceSpansAndContext(t *testing.T) {
	tr := StartTrace()
	if tr.ID() == 0 {
		t.Fatal("trace ID zero")
	}
	if StartTrace().ID() == tr.ID() {
		t.Fatal("trace IDs collide")
	}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("context round-trip lost the trace")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr.Observe(StageCommit, 2*time.Millisecond)
	tr.Observe(StageDecode, time.Millisecond)
	tr.Observe(StageCommit, time.Millisecond)
	if ns := tr.SpanNS(StageCommit); ns != int64(3*time.Millisecond) {
		t.Fatalf("commit span %d", ns)
	}
	spans := tr.Spans()
	if spans != "decode=1ms commit=3ms" {
		t.Fatalf("spans rendered %q", spans)
	}
	var nilT *Trace
	nilT.Observe(StageDecode, time.Second) // no-op
	if nilT.Spans() != "" || nilT.ID() != 0 {
		t.Fatal("nil trace not inert")
	}
}
