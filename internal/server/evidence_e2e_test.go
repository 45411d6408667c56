package server_test

// End-to-end test of the evidence subsystem over the HTTP API: a
// verified investigation opens a solicitation, an anonymous owner
// delivers the solicited video under a single-use session, the VD
// cascade accepts honest bytes and rejects tampered ones, the payout
// mints blind-signed cash that verifies against the public key and
// refuses double spends — including across a full persistence restart
// — and the investigator retrieves only the blurred copy.

import (
	"bytes"
	"fmt"
	"image"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"viewmap/internal/blur"
	"viewmap/internal/client"
	"viewmap/internal/evidence"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vd"
)

// evidenceFrameW/H are the camera frame dimensions of the test
// convoy; each per-second chunk is one such luminance frame.
const (
	evidenceFrameW = 160
	evidenceFrameH = 90
)

// evidencePlate is where the synthetic camera renders the plate.
var evidencePlate = image.Rect(55, 40, 105, 56)

// driveCameraConvoy runs two civilian vehicles with plate-bearing
// cameras and one police car side by side for one minute.
func driveCameraConvoy(t *testing.T) (vehicles []*client.Vehicle, police *client.Vehicle) {
	t.Helper()
	names := []string{"cam-A", "cam-B", "police-9"}
	offsets := []float64{0, 60, 120}
	all := make([]*client.Vehicle, 3)
	for i, name := range names {
		v, err := client.NewVehicle(client.VehicleConfig{
			Name: name, Seed: int64(i + 1),
			Source: &blur.CameraSource{
				W: evidenceFrameW, H: evidenceFrameH, Seed: uint64(i + 1),
				Plates: []blur.Plate{{Rect: evidencePlate}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.BeginMinute(0); err != nil {
			t.Fatal(err)
		}
		all[i] = v
	}
	for s := 1; s <= 60; s++ {
		vds := make([]vd.VD, 3)
		for i, v := range all {
			d, err := v.Tick(geo.Pt(float64(s)*10+offsets[i], 0))
			if err != nil {
				t.Fatal(err)
			}
			vds[i] = d
		}
		for i, v := range all {
			for j, d := range vds {
				if i != j {
					if err := v.Hear(d, int64(s)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, v := range all {
		// No guards: the evidence flow needs only actual VPs, and
		// guard-free convoys keep the viewmap minimal.
		if _, _, err := v.EndMinute(nil); err != nil {
			t.Fatal(err)
		}
	}
	return all[:2], all[2]
}

func newEvidenceSystem(t *testing.T) *server.System {
	t.Helper()
	sys, err := server.NewSystem(evidenceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// openEvidenceSystem opens the same system durably, with its data
// directory in dir.
func openEvidenceSystem(t *testing.T, dir string) *server.System {
	t.Helper()
	sys, err := server.OpenDurable(evidenceConfig(t), server.DurabilityConfig{WALPath: filepath.Join(dir, "ingest.wal")})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func evidenceConfig(t *testing.T) server.Config {
	return server.Config{
		AuthorityToken: "secret-token",
		Bank:           sharedBank(t),
		Evidence:       evidence.Config{FrameWidth: evidenceFrameW, FrameHeight: evidenceFrameH},
	}
}

func TestEvidenceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sys := openEvidenceSystem(t, dir)
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

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

	// Phase 1: a verified investigation opens the solicitation.
	if _, err := api.OpenSolicitation("bad-token", 0, -50, 800, 50, 0, 3); err == nil {
		t.Fatal("solicitation with a bad token must fail")
	}
	sol, err := api.OpenSolicitation("secret-token", 0, -50, 800, 50, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NewlyListed < 2 || sol.Units != 3 {
		t.Fatalf("solicitation %+v, want at least both civilian VPs at 3 units", sol)
	}
	// Reopening is idempotent for already-listed identifiers.
	sol2, err := api.OpenSolicitation("secret-token", 0, -50, 800, 50, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.NewlyListed != 0 {
		t.Fatalf("reopen listed %d new identifiers, want 0", sol2.NewlyListed)
	}

	// Phase 2: the owner polls the board anonymously and delivers.
	offers, err := api.EvidenceBoard()
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) < 2 {
		t.Fatalf("board lists %d offers, want >= 2", len(offers))
	}
	for _, o := range offers {
		if o.Units != 3 {
			t.Fatalf("offer %x carries %d units, want 3", o.ID[:4], o.Units)
		}
	}
	boardIDs := make([]vd.VPID, len(offers))
	for i, o := range offers {
		boardIDs[i] = o.ID
	}

	owner := vehicles[0]
	matched := owner.MatchSolicitations(boardIDs)
	if len(matched) != 1 {
		t.Fatalf("owner matches %d solicitations, want 1", len(matched))
	}
	var ownID vd.VPID
	var chunks [][]byte
	for id, c := range matched {
		ownID, chunks = id, c
	}
	q, ok := owner.Secret(ownID)
	if !ok {
		t.Fatal("owner lost its secret")
	}

	// A thief without the secret, and a video nobody solicited, are
	// refused with 403 before the cascade runs.
	if err := deliverExpectError(api, ownID, vd.Secret{}, chunks, "403"); err != nil {
		t.Fatal(err)
	}
	strangerQ, err := vd.NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	if err := deliverExpectError(api, vd.DeriveVPID(strangerQ), strangerQ, chunks, "403"); err != nil {
		t.Fatal(err)
	}

	// Tampered bytes bounce off the cascade with 422; the board entry
	// stays open.
	tampered := make([][]byte, len(chunks))
	for i, c := range chunks {
		tampered[i] = append([]byte(nil), c...)
	}
	tampered[30][7] ^= 0x40
	if err := deliverExpectError(api, ownID, q, tampered, "422"); err != nil {
		t.Fatal(err)
	}

	// Honest bytes are accepted and grant the offered units.
	units, err := api.DeliverEvidence(ownID, q, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if units != 3 {
		t.Fatalf("delivery granted %d units, want 3", units)
	}
	// A repeat delivery conflicts.
	if err := deliverExpectError(api, ownID, q, chunks, "409"); err != nil {
		t.Fatal(err)
	}

	// Phase 3: payout. Units verify against the public key; double
	// spends are refused.
	pub, err := api.BankKey()
	if err != nil {
		t.Fatal(err)
	}
	cash, err := api.WithdrawPayout(ownID, q, units, pub)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cash {
		if !c.Verify(pub) {
			t.Fatalf("unit %d fails public verification", i)
		}
	}
	if _, err := api.WithdrawPayout(ownID, q, 1, pub); err == nil {
		t.Fatal("over-withdrawal must be refused")
	}
	if err := api.RedeemPayout(cash[0]); err != nil {
		t.Fatal(err)
	}
	if err := api.RedeemPayout(cash[0]); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("double spend: got %v, want HTTP 409", err)
	}

	// Phase 4: the investigator retrieves only the blurred copy.
	if _, err := api.FetchEvidence("bad-token", ownID); err == nil {
		t.Fatal("release without authority must fail")
	}
	rel, err := api.FetchEvidence("secret-token", ownID)
	if err != nil {
		t.Fatal(err)
	}
	if rel.RedactedFrames != 60 || rel.RedactedRegions < 60 {
		t.Fatalf("release redacted %d frames / %d regions, want 60 / >=60", rel.RedactedFrames, rel.RedactedRegions)
	}
	if len(rel.Chunks) != 60 {
		t.Fatalf("released %d chunks", len(rel.Chunks))
	}
	inner := evidencePlate.Inset(7)
	for i := range rel.Chunks {
		if bytes.Equal(rel.Chunks[i], chunks[i]) {
			t.Fatalf("released chunk %d is the raw recording", i)
		}
		frame := &image.Gray{Pix: rel.Chunks[i], Stride: evidenceFrameW,
			Rect: image.Rect(0, 0, evidenceFrameW, evidenceFrameH)}
		if c := blur.Contrast(frame, inner); c >= 15 {
			t.Fatalf("released chunk %d still shows the plate (contrast %d)", i, c)
		}
	}

	// Phase 5: stats report the lifecycle.
	st, err := api.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	ev := st.Evidence
	if ev.DeliveriesAccepted != 1 || ev.DeliveriesRejected != 1 ||
		ev.UnitsMinted != 3 || ev.UnitsRedeemed != 1 || ev.Released != 1 {
		t.Fatalf("evidence stats %+v", ev)
	}
	if ev.OpenSolicitations == 0 {
		t.Fatal("the second civilian VP should still be solicited")
	}

	// Phase 6: restart. The full state crosses a close and a reopen of
	// the data directory: the double-spend ledger, the remaining board,
	// the released video.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := openEvidenceSystem(t, dir)
	defer sys2.Close()
	ts2 := httptest.NewServer(server.Handler(sys2))
	defer ts2.Close()
	api2, err := client.NewAPI(ts2.URL, ts2.Client())
	if err != nil {
		t.Fatal(err)
	}

	// The unit spent before the restart stays spent; the unspent one
	// redeems exactly once.
	if err := api2.RedeemPayout(cash[0]); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("double spend across restart: got %v, want HTTP 409", err)
	}
	if err := api2.RedeemPayout(cash[1]); err != nil {
		t.Fatalf("redeeming the unspent unit after restart: %v", err)
	}
	// The minted-before-restart cash verifies against the restarted
	// bank's key.
	pub2, err := api2.BankKey()
	if err != nil {
		t.Fatal(err)
	}
	if !cash[2].Verify(pub2) {
		t.Fatal("pre-restart unit must verify against the restored key")
	}
	// The delivery stays delivered, the release stays available.
	if err := deliverExpectError(api2, ownID, q, chunks, "409"); err != nil {
		t.Fatal(err)
	}
	if _, err := api2.FetchEvidence("secret-token", ownID); err != nil {
		t.Fatalf("release after restart: %v", err)
	}
	// The other civilian's offer survived and is still deliverable.
	other := vehicles[1]
	offers2, err := api2.EvidenceBoard()
	if err != nil {
		t.Fatal(err)
	}
	ids2 := make([]vd.VPID, len(offers2))
	for i, o := range offers2 {
		ids2[i] = o.ID
	}
	delivered := 0
	for id, c := range other.MatchSolicitations(ids2) {
		q2, _ := other.Secret(id)
		if _, err := api2.DeliverEvidence(id, q2, c); err != nil {
			t.Fatalf("post-restart delivery: %v", err)
		}
		delivered++
	}
	if delivered != 1 {
		t.Fatalf("post-restart deliveries = %d, want 1", delivered)
	}
	st2, err := api2.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Evidence.DeliveriesAccepted != 2 || st2.Evidence.UnitsRedeemed != 2 {
		t.Fatalf("post-restart stats %+v", st2.Evidence)
	}
}

// deliverExpectError asserts a delivery fails with the given HTTP
// status substring.
func deliverExpectError(api *client.API, id vd.VPID, q vd.Secret, chunks [][]byte, status string) error {
	_, err := api.DeliverEvidence(id, q, chunks)
	if err == nil {
		return fmt.Errorf("delivery unexpectedly accepted")
	}
	if !strings.Contains(err.Error(), status) {
		return fmt.Errorf("delivery failed with %q, want HTTP %s", err, status)
	}
	return nil
}
