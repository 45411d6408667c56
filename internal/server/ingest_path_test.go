package server

// The one ingest path: POST /v1/vp and /v1/vp/trusted are batches of
// one through the code POST /v1/vp/batch runs, so the three endpoints
// share one error mapping, one journal format and one per-stage trace.

import (
	"bytes"
	"errors"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewmap/internal/vp"
)

// postUpload serves one upload of p synchronously (the telemetry
// middleware has logged before it returns), framed for path; a nil p
// posts a body that does not parse.
func postUpload(sys *System, path string, p *vp.Profile) *httptest.ResponseRecorder {
	body := []byte("not a view profile")
	if p != nil && path == "/v1/vp/batch" {
		body = vp.MarshalBatch([]*vp.Profile{p})
	} else if p != nil {
		body = p.Marshal()
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set(authorityHeader, "t")
	rec := httptest.NewRecorder()
	Handler(sys).ServeHTTP(rec, req)
	return rec
}

// TestUploadStatusCodes pins every upload endpoint's answer to each
// failure class against docs/http-api.md: a stale minute is 422 for a
// single upload (trusted uploads are exempt; a batch counts it), a
// failing fsync is 503 everywhere, a duplicate is 409 for a single
// upload (a batch counts it), and a body that does not parse is 400.
func TestUploadStatusCodes(t *testing.T) {
	for _, tc := range []struct {
		fault, path string
		status      int
		batch       string // a batch upload's 200 body
	}{
		{"stale", "/v1/vp", 422, ""},
		{"stale", "/v1/vp/trusted", 201, ""},
		{"stale", "/v1/vp/batch", 200, `{"stored":0,"duplicates":0,"rejected":1}`},
		{"fsync", "/v1/vp", 503, ""},
		{"fsync", "/v1/vp/trusted", 503, ""},
		{"fsync", "/v1/vp/batch", 503, ""},
		{"duplicate", "/v1/vp", 409, ""},
		{"duplicate", "/v1/vp/trusted", 409, ""},
		{"duplicate", "/v1/vp/batch", 200, `{"stored":0,"duplicates":1,"rejected":0}`},
		{"malformed", "/v1/vp", 400, ""},
		{"malformed", "/v1/vp/trusted", 400, ""},
		{"malformed", "/v1/vp/batch", 400, ""},
	} {
		t.Run(tc.fault+tc.path, func(t *testing.T) {
			clk := &testClock{}
			clk.minute.Store(4)
			var failFsync atomic.Bool
			sys, err := OpenDurable(Config{AuthorityToken: "t", Bank: durBank(t), Now: clk.now, MaxUploadLagMinutes: 1},
				DurabilityConfig{
					WALPath: filepath.Join(t.TempDir(), "ingest.wal"), RetentionInterval: time.Hour,
					Fsync: func(f *os.File) error {
						if failFsync.Load() {
							return errors.New("injected fsync failure")
						}
						return f.Sync()
					},
				})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Abort()
			p := fabricate(t, 4, 1)
			switch tc.fault {
			case "stale":
				p = fabricate(t, 2, 1)
			case "fsync":
				failFsync.Store(true)
			case "duplicate":
				if err := sys.UploadVP(p.Marshal()); err != nil {
					t.Fatal(err)
				}
			case "malformed":
				p = nil
			}
			rec := postUpload(sys, tc.path, p)
			if body := strings.TrimSpace(rec.Body.String()); rec.Code != tc.status || (tc.batch != "" && body != tc.batch) {
				t.Fatalf("got %d %s, want %d %s", rec.Code, body, tc.status, tc.batch)
			}
		})
	}
}

// TestUploadJournalRecords checks what each single upload appends to
// the WAL: one anonymous upload is one walRecVPBatch record framing its
// lone wire record, and one trusted upload is one walRecVPTrusted
// record holding the wire record itself.
func TestUploadJournalRecords(t *testing.T) {
	for _, tc := range []struct {
		path string
		typ  byte
		body func(wire []byte) []byte
	}{
		{"/v1/vp", walRecVPBatch, func(wire []byte) []byte { return vp.MarshalRawBatch([][]byte{wire}) }},
		{"/v1/vp/trusted", walRecVPTrusted, func(wire []byte) []byte { return wire }},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			dir := t.TempDir()
			sys := openDurable(t, dir, 0)
			defer sys.Close()
			before := sys.DurabilityStatsSnapshot().AppendedLSN
			p := fabricate(t, 0, 7)
			if rec := postUpload(sys, tc.path, p); rec.Code != 201 {
				t.Fatalf("upload status %d", rec.Code)
			}
			var types []byte
			var body []byte
			if _, _, _, err := replayWALFile(filepath.Join(dir, "ingest.wal"), before, func(_ uint64, typ byte, b []byte) error {
				types, body = append(types, typ), append([]byte(nil), b...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(types) != 1 || types[0] != tc.typ || !bytes.Equal(body, tc.body(p.Marshal())) {
				t.Fatalf("upload appended record types %v, want one type-%d record holding the upload", types, tc.typ)
			}
		})
	}
}

// TestUploadSlowRequestTrace checks that every upload endpoint hands
// its request trace to the ingest path: with the slow-request threshold
// at 1 ns, each upload logs one line whose spans name every ingest
// stage it ran.
func TestUploadSlowRequestTrace(t *testing.T) {
	// Only the telemetry middleware logs, from the goroutine serving
	// the request, which postUpload runs synchronously.
	var logs bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)

	sys, err := OpenDurable(Config{AuthorityToken: "t", Bank: durBank(t), SlowRequest: time.Nanosecond},
		DurabilityConfig{WALPath: filepath.Join(t.TempDir(), "ingest.wal"), RetentionInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i, path := range []string{"/v1/vp", "/v1/vp/trusted", "/v1/vp/batch"} {
		logs.Reset()
		if rec := postUpload(sys, path, fabricate(t, 0, int64(20+i))); rec.Code >= 300 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		line := logs.String()
		if !strings.Contains(line, "slow-request ") || !strings.Contains(line, " path="+path+" ") {
			t.Fatalf("%s: no slow-request line in %q", path, line)
		}
		for _, stage := range []string{"decode", "wal_append", "ring_wait", "link_stage", "commit"} {
			if !strings.Contains(line, stage+"=") {
				t.Errorf("%s: slow-request spans lack %s: %s", path, stage, line)
			}
		}
	}
}
