package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// TestReadBodyContentLength sends the two largest request bodies under
// every Content-Length a request can declare: exact (the pre-sized
// read), unknown (grown by doubling), smaller than the body (pre-sized,
// then grown) and above the upload cap (a reservation of
// maxPresizeBytes). Each must give the same
// status, reply and stored state. A body cut short of its declared
// length over a real connection must be refused, and a declared length
// far above what is sent must not reserve more than maxPresizeBytes.
func TestReadBodyContentLength(t *testing.T) {
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 20, Area: durArea, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	own := recordDurOwner(t, 0, 7)
	id := own.p.ID()
	deliver, err := json.Marshal(map[string]any{
		"id": hex.EncodeToString(id[:]), "secret": hex.EncodeToString(own.q[:]), "chunks": own.chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct {
		path  string
		body  []byte
		setup func(*System)
	}{
		{"/v1/vp/batch", vp.MarshalBatch(profiles), func(*System) {}},
		{"/v1/evidence/deliver", deliver, func(sys *System) {
			if err := sys.UploadVP(own.p.Marshal()); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Evidence().Open(durSite, 0, []vd.VPID{id}, 2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ep := range endpoints {
		// Over a connection, a body that ends before its declared
		// length is a transport error: 400, and nothing is stored.
		sys := controlSystem(t)
		ep.setup(sys)
		ts := httptest.NewServer(Handler(sys))
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: viewmap\r\n%s: s-1\r\nContent-Length: %d\r\n\r\n%s",
			ep.path, sessionHeader, len(ep.body)+1, ep.body)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		conn.Close()
		ts.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s cut short of its Content-Length: status %d, want 400", ep.path, resp.StatusCode)
		}
		if n, ev := sys.Store().Len(), sys.Evidence().StatsSnapshot(); n > 1 || ev.DeliveriesAccepted != 0 {
			t.Errorf("%s cut short of its Content-Length stored %d VPs and %d deliveries", ep.path, n, ev.DeliveriesAccepted)
		}
	}
	for _, ep := range endpoints {
		n := int64(len(ep.body))
		var want []byte
		for _, cl := range []int64{n, -1, n / 2, maxUploadBytes + 1} {
			sys := controlSystem(t)
			ep.setup(sys)
			req := httptest.NewRequest("POST", ep.path, bytes.NewReader(ep.body))
			req.ContentLength = cl
			req.Header.Set(sessionHeader, "s-1")
			rec := httptest.NewRecorder()
			Handler(sys).ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s with Content-Length %d: status %d, body %s", ep.path, cl, rec.Code, rec.Body)
			}
			var got bytes.Buffer
			got.Write(rec.Body.Bytes())
			if err := sys.saveTo(&got); err != nil {
				t.Fatal(err)
			}
			for _, m := range sys.Store().Minutes() {
				got.Write(framedRecords(sys.Store().Minute(m)))
			}
			if want == nil {
				want = got.Bytes()
			} else if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s with Content-Length %d: reply or stored state differs from the exact-length request", ep.path, cl)
			}
		}
	}
	for _, cl := range []int64{maxUploadBytes, math.MaxInt64} {
		req := httptest.NewRequest("POST", "/v1/vp", strings.NewReader("viewmap"))
		req.ContentLength = cl
		body, err := readBody(req)
		if err != nil || string(body) != "viewmap" {
			t.Fatalf("Content-Length %d: read %q, %v", cl, body, err)
		}
		if cap(body) > maxPresizeBytes {
			t.Errorf("Content-Length %d with a 7-byte body reserved %d bytes, want at most %d", cl, cap(body), maxPresizeBytes)
		}
	}
}
