package server_test

// The evidence wire contract: chunks travel as standard-base64 JSON
// strings in both directions, deliveries refuse anything else with
// 400, and a payout whose signature fails the bank's self-check
// answers 500 without spending the entitlement.

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viewmap/internal/blur"
	"viewmap/internal/client"
	"viewmap/internal/evidence"
	"viewmap/internal/reward"
	"viewmap/internal/server"
	"viewmap/internal/vd"
)

// solicitedOwner uploads a camera convoy to sys, solicits its site and
// returns one civilian's identifier, secret and recording.
func solicitedOwner(t *testing.T, sys *server.System, api *client.API) (vd.VPID, vd.Secret, [][]byte) {
	t.Helper()
	vehicles, police := driveCameraConvoy(t)
	for _, v := range vehicles {
		if _, err := api.UploadVPBatch(v.PendingUploads()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range police.PendingUploads() {
		if err := api.UploadTrustedVP("secret-token", p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := api.OpenSolicitation("secret-token", 0, -50, 800, 50, 0, 3); err != nil {
		t.Fatal(err)
	}
	offers, err := api.EvidenceBoard()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]vd.VPID, len(offers))
	for i, o := range offers {
		ids[i] = o.ID
	}
	for id, chunks := range vehicles[0].MatchSolicitations(ids) {
		q, _ := vehicles[0].Secret(id)
		return id, q, chunks
	}
	t.Fatal("the owner's video was not solicited")
	return vd.VPID{}, vd.Secret{}, nil
}

// postDeliver sends a raw delivery body under a fresh session and
// returns the status.
func postDeliver(t *testing.T, h http.Handler, session string, body []byte) int {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/evidence/deliver", bytes.NewReader(body))
	req.Header.Set("X-Session", session)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

func TestEvidenceWireContract(t *testing.T) {
	sys := newEvidenceSystem(t)
	h := server.Handler(sys)
	ts := httptest.NewServer(h)
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	id, q, chunks := solicitedOwner(t, sys, api)
	idHex, qHex := hex.EncodeToString(id[:]), hex.EncodeToString(q[:])
	body := func(chunks string) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"secret":%q,"chunks":%s}`, idHex, qHex, chunks))
	}

	// Anything but a base64 string (or null) is a 400, before the
	// cascade runs.
	for i, bad := range []string{`["!!!"]`, `[[1,2,3]]`, `[5]`, `[{"a":1}]`, `[true]`, `"QUJD"`} {
		if code := postDeliver(t, h, fmt.Sprintf("bad-%d", i), body(bad)); code != http.StatusBadRequest {
			t.Errorf("chunks %s: status %d, want 400", bad, code)
		}
	}
	// A null chunk decodes as an empty one and fails the cascade.
	enc := make([]string, len(chunks))
	for i, c := range chunks {
		enc[i] = base64.StdEncoding.EncodeToString(c)
	}
	plain, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	withNull := bytes.Replace(plain, []byte(`"`+enc[5]+`"`), []byte("null"), 1)
	if code := postDeliver(t, h, "null-chunk", body(string(withNull))); code != http.StatusUnprocessableEntity {
		t.Fatalf("null chunk: status %d, want 422", code)
	}

	// Escaped solidi decode to the bytes of their unescaped form: the
	// cascade accepts the delivery.
	escaped := bytes.ReplaceAll(plain, []byte("/"), []byte(`\/`))
	if bytes.Equal(escaped, plain) {
		t.Fatal("no chunk contains a '/' to escape")
	}
	if code := postDeliver(t, h, "escaped", body(string(escaped))); code != http.StatusOK {
		t.Fatalf("escaped delivery: status %d, want 200", code)
	}

	// The release body is byte-equal to the []string encoding.
	req := httptest.NewRequest("GET", "/v1/evidence/video?id="+idHex, nil)
	req.Header.Set("X-Viewmap-Authority", "secret-token")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("release: status %d", rec.Code)
	}
	redacted, frames, regions, err := blur.RedactChunks(chunks, evidenceFrameW, evidenceFrameH, blur.Params{})
	if err != nil {
		t.Fatal(err)
	}
	old := struct {
		Chunks          []string `json:"chunks"`
		RedactedFrames  int      `json:"redactedFrames"`
		RedactedRegions int      `json:"redactedRegions"`
	}{make([]string, len(redacted)), frames, regions}
	for i, c := range redacted {
		old.Chunks[i] = base64.StdEncoding.EncodeToString(c)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(old); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatal("release body differs from the base64-string encoding")
	}
}

func TestPayoutSignatureFaultIs500(t *testing.T) {
	good := sharedBank(t)
	// Same modulus and exponents, one wrong prime: the CRT values
	// derived from it are wrong, and only the self-check can tell.
	faulty := *testKey
	faulty.Primes = []*big.Int{new(big.Int).Add(faulty.Primes[0], big.NewInt(2)), faulty.Primes[1]}
	bank := reward.NewBankFromKey(&faulty)
	sys, err := server.NewSystem(server.Config{
		AuthorityToken: "secret-token",
		Bank:           bank,
		Evidence:       evidence.Config{FrameWidth: evidenceFrameW, FrameHeight: evidenceFrameH},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	id, q, chunks := solicitedOwner(t, sys, api)
	units, err := api.DeliverEvidence(id, q, chunks)
	if err != nil {
		t.Fatal(err)
	}
	pub := bank.PublicKey()
	if _, err := api.WithdrawPayout(id, q, units, pub); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("faulty payout: got %v, want HTTP 500", err)
	}
	if st := sys.Evidence().StatsSnapshot(); st.UnitsMinted != 0 {
		t.Fatalf("faulty payout minted %d units", st.UnitsMinted)
	}

	// With the signer repaired, the whole entitlement is still there.
	var saved bytes.Buffer
	if err := good.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	if err := bank.LoadFrom(&saved); err != nil {
		t.Fatal(err)
	}
	cash, err := api.WithdrawPayout(id, q, units, pub)
	if err != nil {
		t.Fatalf("payout after repair: %v", err)
	}
	for i, c := range cash {
		if !c.Verify(pub) {
			t.Fatalf("unit %d fails verification", i)
		}
	}
	if _, err := api.WithdrawPayout(id, q, 1, pub); err == nil {
		t.Fatal("the entitlement must be spent after the repaired payout")
	}
}
