package server

// Differential fuzz target for the delivery body decoder: decodeDeliver
// takes canonical bodies through parseDeliver's one-pass decoder and
// everything else through decodeJSONFrom (encoding/json), so for any
// body it must accept exactly what decodeJSONFrom accepts and produce
// the same request. The seeds cover each shape the fast path must hand
// to the fallback, and run in every plain `go test`. Wired into `make
// fuzz` alongside the other decoder targets.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// deliverSeedBody is a small canonical delivery body. Its chunks
// encode to base64 holding '+' and '/', so the escaped-solidus seed
// differs from it.
func deliverSeedBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := json.Marshal(map[string]any{
		"id":     strings.Repeat("ab", 32),
		"secret": strings.Repeat("cd", 32),
		"chunks": [][]byte{{0xfb, 0xff, 0xbf, 0x00}, {}, []byte("viewmap")},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func FuzzDeliverDecode(f *testing.F) {
	canonical := deliverSeedBody(f)
	chunk := `"+/+/AA=="`
	if !bytes.Contains(canonical, []byte(chunk)) {
		f.Fatalf("seed body %s lacks chunk %s", canonical, chunk)
	}
	withChunk := func(lit string) []byte {
		return bytes.Replace(canonical, []byte(chunk), []byte(lit), 1)
	}
	seeds := [][]byte{
		canonical,
		bytes.ReplaceAll(canonical, []byte("/"), []byte(`\/`)),
		bytes.Replace(canonical, []byte(`"id"`), []byte(`"\u0069d"`), 1),
		bytes.Replace(canonical, []byte(`"id"`), []byte(`"ID"`), 1),
		bytes.Replace(canonical, []byte(`"secret"`), []byte(`"ſecret"`), 1),
		bytes.Replace(canonical, []byte(`{`), []byte(`{"id":null,`), 1),
		[]byte(`{"id":"ab","secret":"cd","chunks":["QUJD"],"id":null}`),
		[]byte(`{"id":"ab","chunks":null}`),
		withChunk("null"),
		withChunk("\"+/+/\nAA==\""),
		withChunk("\"+/+/\rAA==\""),
		withChunk(`"+/+/\nAA=="`),
		bytes.Replace(canonical, []byte(`{`), []byte(`{"units":3,`), 1),
		append(bytes.Clone(canonical[:len(canonical)-1]), ",}"...),
		append(bytes.Clone(canonical), "garbage"...),
		canonical[:len(canonical)/2],
		[]byte("null"),
		[]byte(`["QUJD"]`),
		[]byte("{}"),
		[]byte(" \t\r\n{ \"chunks\" : [ \"QUJD\" , \"\" ] }\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeDeliver(httptest.NewRequest("POST", "/v1/evidence/deliver", bytes.NewReader(body)))
		var want deliverRequest
		wantErr := decodeJSONFrom(bytes.NewReader(body), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeDeliver error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.ID != want.ID || got.Secret != want.Secret || len(got.Chunks) != len(want.Chunks) {
			t.Fatalf("decodeDeliver gave id %q secret %q and %d chunks; encoding/json id %q secret %q and %d chunks",
				got.ID, got.Secret, len(got.Chunks), want.ID, want.Secret, len(want.Chunks))
		}
		for i := range got.Chunks {
			if !bytes.Equal(got.Chunks[i], want.Chunks[i]) {
				t.Fatalf("chunk %d: decodeDeliver %x, encoding/json %x", i, got.Chunks[i], want.Chunks[i])
			}
		}
	})
}

// TestParseDeliverTakesCanonicalBodies keeps the fast path on the
// bodies clients send: the client's [][]byte encoding, the []string
// encoding, and an indented body all decode without the fallback.
func TestParseDeliverTakesCanonicalBodies(t *testing.T) {
	strs, err := json.Marshal(map[string]any{"id": "ab", "secret": "cd", "chunks": []string{"+/+/AA==", "", "dmlld21hcA=="}})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(map[string]any{"chunks": []string{"QUJD"}, "secret": "cd", "id": "ab"}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{deliverSeedBody(t), strs, indented, []byte(`{"chunks":[]}`)} {
		got, ok := parseDeliver(body)
		var want deliverRequest
		err := decodeJSONFrom(bytes.NewReader(body), &want)
		if !ok || err != nil {
			t.Fatalf("%s: parseDeliver ok %v, encoding/json error %v", body, ok, err)
		}
		if got.ID != want.ID || got.Secret != want.Secret || len(got.Chunks) != len(want.Chunks) {
			t.Fatalf("%s: parseDeliver %+v, encoding/json %+v", body, got, want)
		}
	}
}
