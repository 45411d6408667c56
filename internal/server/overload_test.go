package server

// Overload-discipline tests: per-class admission isolation (a full
// ingest queue sheds uploads with 429 + Retry-After while the
// investigate gate keeps admitting), exact shed accounting in
// /v1/stats, and the WAL fsync fault-injection seam the scenario
// engine's slow-disk plan rides.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/vp"
)

func TestClassifyEndpoint(t *testing.T) {
	cases := []struct {
		path string
		want endpointClass
	}{
		{"/v1/vp", classIngest},
		{"/v1/vp/batch", classIngest},
		{"/v1/vp/trusted", classIngest},
		{"/v1/investigate", classInvestigate},
		{"/v1/investigate/period", classInvestigate},
		{"/v1/investigate/report", classInvestigate},
		{"/v1/investigate/watch", classInvestigate},
		{"/v1/evidence/solicit", classInvestigate},
		{"/v1/evidence/video", classInvestigate},
		{"/v1/evidence/solicitations", classEvidence},
		{"/v1/evidence/deliver", classEvidence},
		{"/v1/evidence/payout", classEvidence},
		{"/v1/evidence/redeem", classEvidence},
		{"/v1/stats", classNone},
		{"/v1/metrics", classNone},
		{"/v1/bank", classNone},
		// Paths outside the route table are ungated, whatever their
		// prefix; the mux answers them 404.
		{"/v1/evidence/board", classNone},
		{"/unknown", classNone},
	}
	for _, c := range cases {
		if got := classifyEndpoint(c.path); got != c.want {
			t.Errorf("classifyEndpoint(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestRouteTableRouted checks that the route table and Handler agree:
// every entry is served under its method (a request there is neither
// 404 nor 405), a path outside the table is 404, and each entry has
// its own latency histogram.
func TestRouteTableRouted(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(sys)
	for _, rt := range routes {
		// Empty bodies and queries fail validation fast (400/401);
		// only routing failures matter here.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader("")))
		if rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: HTTP %d, the route table entry is not served", rt.method, rt.path, rec.Code)
		}
		if sys.metrics.Endpoint(rt.path) == sys.metrics.Endpoint("/v1/not-a-route") {
			t.Errorf("%s has no latency histogram of its own", rt.path)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/not-a-route", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("path outside the route table: HTTP %d, want 404", rec.Code)
	}
}

// TestAdmissionGateQueueAndShed drives one gate through its states:
// slots fill, the bounded queue holds the overflow, everything beyond
// sheds, and releases drain the queue in order.
func TestAdmissionGateQueueAndShed(t *testing.T) {
	g := newAdmissionGate(1, 1)
	if !g.tryAcquire() {
		t.Fatal("first acquire should take the slot")
	}
	// Second caller queues (blocks); wait until it is visibly queued.
	acquired := make(chan struct{})
	go func() {
		if !g.tryAcquire() {
			t.Error("queued acquire should eventually succeed")
		}
		close(acquired)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third caller finds slot and queue full: shed.
	if g.tryAcquire() {
		t.Fatal("acquire beyond slots+queue must shed")
	}
	s := g.snapshot()
	if s.Shed != 1 || s.Admitted != 1 || s.Queued != 1 || s.Active != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	g.release()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("release did not drain the queue")
	}
	g.release()
	s = g.snapshot()
	if s.Admitted != 2 || s.Active != 0 || s.Queued != 0 {
		t.Fatalf("drained snapshot %+v", s)
	}
}

// TestOverloadShedsUploadsAdmitsInvestigations pins the satellite
// acceptance behavior over live HTTP: with the ingest gate full to the
// queue, an upload is answered 429 with the configured Retry-After
// while an authority investigation on the very same server is admitted
// — and the stats endpoint (ungated) reports the shed exactly.
func TestOverloadShedsUploadsAdmitsInvestigations(t *testing.T) {
	sys, err := NewSystem(Config{
		AuthorityToken: "t", Bank: durBank(t),
		Overload: OverloadConfig{IngestSlots: 1, IngestQueue: 1, RetryAfter: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	uploadMinute(t, 0, 8, 42, sys)
	ts := httptest.NewServer(Handler(sys))
	defer ts.Close()

	// Fill the ingest gate from the inside: one active holder, one
	// queued waiter.
	g := sys.overload.ingest
	if !g.tryAcquire() {
		t.Fatal("priming acquire failed")
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if g.tryAcquire() {
			<-release
			g.release()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// An upload now sheds with 429 and the 3 s Retry-After hint.
	resp, err := http.Post(ts.URL+"/v1/vp/batch", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("upload during overload: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}

	// An investigation during the same overload is admitted: its gate
	// is isolated from ingest.
	body := fmt.Sprintf(`{"site":{"minX":%f,"minY":%f,"maxX":%f,"maxY":%f},"minute":0}`,
		durSite.Min.X, durSite.Min.Y, durSite.Max.X, durSite.Max.Y)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/investigate/report", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(authorityHeader, "t")
	iresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("investigation during ingest overload: status %d, want 200", iresp.StatusCode)
	}

	// The ungated stats endpoint reports the shed while the gate is
	// still full.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Overload.Ingest.Shed != 1 {
		t.Fatalf("ingest shed = %d, want 1", stats.Overload.Ingest.Shed)
	}
	if stats.Overload.Investigate.Shed != 0 || stats.Overload.Investigate.Admitted == 0 {
		t.Fatalf("investigate gate %+v", stats.Overload.Investigate)
	}
	if stats.Overload.RetryAfterSeconds != 3 {
		t.Fatalf("retryAfterSeconds = %d", stats.Overload.RetryAfterSeconds)
	}

	// Draining the gate readmits uploads.
	close(release)
	g.release()
	wg.Wait()
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 3, Area: durArea, Minute: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	uresp, err := http.Post(ts.URL+"/v1/vp/batch", "application/octet-stream",
		strings.NewReader(string(vp.MarshalBatch(profiles))))
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("upload after drain: status %d, want 200", uresp.StatusCode)
	}
}

// TestShedCountersMatchRejected429s storms a tight ingest gate with
// concurrent uploads and requires exact accounting: the server's shed
// counter equals the 429s the callers observed, and admitted equals
// the rest.
func TestShedCountersMatchRejected429s(t *testing.T) {
	sys, err := NewSystem(Config{
		AuthorityToken: "t", Bank: durBank(t),
		Overload: OverloadConfig{IngestSlots: 1, IngestQueue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(Handler(sys))
	defer ts.Close()

	const n = 32
	var seen429, other atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/vp", "application/octet-stream", strings.NewReader("garbage"))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				seen429.Add(1)
			} else {
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	ov := sys.OverloadStatsSnapshot()
	if ov.Ingest.Shed != seen429.Load() {
		t.Fatalf("server shed %d, clients saw %d x 429", ov.Ingest.Shed, seen429.Load())
	}
	if ov.Ingest.Admitted != other.Load() {
		t.Fatalf("server admitted %d, clients completed %d", ov.Ingest.Admitted, other.Load())
	}
	if ov.Ingest.Admitted+ov.Ingest.Shed != n {
		t.Fatalf("admitted %d + shed %d != %d requests", ov.Ingest.Admitted, ov.Ingest.Shed, n)
	}
}

// TestDurableFsyncHook pins the fault-injection seam: a durable system
// built with a custom Fsync routes every group-commit sync through the
// hook, and the hook runs before the upload acks — the slow-disk
// scenario slows acks but can never skip durability.
func TestDurableFsyncHook(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int64
	sys, err := OpenDurable(Config{AuthorityToken: "t", Bank: durBank(t)}, DurabilityConfig{
		WALPath:           filepath.Join(dir, "ingest.wal"),
		SnapshotInterval:  0,
		RetentionInterval: time.Hour,
		Fsync: func(f *os.File) error {
			syncs.Add(1)
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	before := syncs.Load()
	uploadMinute(t, 0, 6, 11, sys)
	afterFirst := syncs.Load()
	if afterFirst <= before {
		t.Fatal("upload acked without the fsync hook running")
	}
	uploadMinute(t, 1, 6, 12, sys)
	if syncs.Load() <= afterFirst {
		t.Fatal("second minute acked without a further fsync")
	}
}
