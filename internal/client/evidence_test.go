package client

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewmap/internal/vd"
)

// TestEvidenceChunkWireBytes pins the chunk encoding in both
// directions to base64 strings: a delivery body is byte-equal to the
// one built from base64-encoded chunk strings, and a release body in
// that form decodes to the original bytes.
func TestEvidenceChunkWireBytes(t *testing.T) {
	chunks := [][]byte{{0xfb, 0xff, 0x00, 0x3f}, {}, []byte("sixty frames of luminance")}
	enc := make([]string, len(chunks))
	for i, c := range chunks {
		enc[i] = base64.StdEncoding.EncodeToString(c)
	}
	var id vd.VPID
	var q vd.Secret
	id[0], q[0] = 7, 9
	wantReq, err := json.Marshal(map[string]interface{}{
		"id": hex.EncodeToString(id[:]), "secret": hex.EncodeToString(q[:]), "chunks": enc,
	})
	if err != nil {
		t.Fatal(err)
	}
	release, err := json.Marshal(map[string]interface{}{"chunks": enc, "redactedFrames": 2, "redactedRegions": 1})
	if err != nil {
		t.Fatal(err)
	}
	var gotReq []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" {
			gotReq, _ = io.ReadAll(r.Body)
			w.Write([]byte(`{"units":2}`))
			return
		}
		w.Write(release)
	}))
	defer ts.Close()
	api, err := NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.DeliverEvidence(id, q, chunks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReq, wantReq) {
		t.Fatalf("delivery body\n%s\nwant\n%s", gotReq, wantReq)
	}
	rv, err := api.FetchEvidence("tok", id)
	if err != nil {
		t.Fatal(err)
	}
	if rv.RedactedFrames != 2 || rv.RedactedRegions != 1 || len(rv.Chunks) != len(chunks) {
		t.Fatalf("release %+v", rv)
	}
	for i := range chunks {
		if !bytes.Equal(rv.Chunks[i], chunks[i]) {
			t.Fatalf("released chunk %d = %x, want %x", i, rv.Chunks[i], chunks[i])
		}
	}
}
