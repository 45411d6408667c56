package server_test

// End-to-end test of the ViewMap ingest and investigation pipeline
// over the HTTP API: two vehicles and a police car drive side by side
// exchanging VDs, upload their VPs (vehicles anonymously, police as
// trusted), and the authority investigates the incident minute. The
// solicit → deliver → pay half of the flow is TestEvidenceEndToEnd.

import (
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"viewmap/internal/client"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/roadnet"
	"viewmap/internal/server"
	"viewmap/internal/vd"
	"viewmap/internal/vp"

	crand "crypto/rand"
)

// testBankKey is generated once; RSA keygen dominates test time.
var (
	keyOnce sync.Once
	testKey *rsa.PrivateKey
)

func sharedBank(t testing.TB) *reward.Bank {
	t.Helper()
	keyOnce.Do(func() {
		k, err := rsa.GenerateKey(crand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		testKey = k
	})
	return reward.NewBankFromKey(testKey)
}

// driveConvoy runs three ViewMap vehicles (two civilian, one police)
// side by side for one minute on a straight road and returns them.
func driveConvoy(t *testing.T) (vehicles []*client.Vehicle, police *client.Vehicle) {
	t.Helper()
	city, err := roadnet.BuildGrid(roadnet.GridConfig{Cols: 10, Rows: 4, Spacing: 200})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"car-A", "car-B", "police-1"}
	offsets := []float64{0, 60, 120}
	all := make([]*client.Vehicle, 3)
	for i, name := range names {
		v, err := client.NewVehicle(client.VehicleConfig{
			Name: name, BytesPerSecond: 2000, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.BeginMinute(0); err != nil {
			t.Fatal(err)
		}
		all[i] = v
	}
	// One minute of driving eastbound along y=0 at 10 m/s, full VD
	// exchange between all pairs (open road, everyone in range).
	for s := 1; s <= 60; s++ {
		vds := make([]vd.VD, 3)
		for i, v := range all {
			loc := geo.Pt(float64(s)*10+offsets[i], 0)
			d, err := v.Tick(loc)
			if err != nil {
				t.Fatal(err)
			}
			vds[i] = d
		}
		for i, v := range all {
			for j, d := range vds {
				if i == j {
					continue
				}
				if err := v.Hear(d, int64(s)); err != nil {
					t.Fatalf("vehicle %d hearing %d: %v", i, j, err)
				}
			}
		}
	}
	for i, v := range all {
		// Civilian vehicles fabricate guard VPs for path privacy; the
		// police car has no need to and uploads only its trusted VP.
		guardNet := city.Net
		if i == 2 {
			guardNet = nil
		}
		if _, _, err := v.EndMinute(guardNet); err != nil {
			t.Fatalf("vehicle %d EndMinute: %v", i, err)
		}
	}
	return all[:2], all[2]
}

func TestEndToEndIncidentPipeline(t *testing.T) {
	sys, err := server.NewSystem(server.Config{
		AuthorityToken: "secret-token",
		Bank:           sharedBank(t),
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

	vehicles, police := driveConvoy(t)

	// Phase 1: uploads. Vehicles upload anonymously — one batched
	// request per vehicle covering the actual VP and its guards —
	// and police uploads as trusted.
	for _, v := range vehicles {
		pending := v.PendingUploads()
		res, err := api.UploadVPBatch(pending)
		if err != nil {
			t.Fatalf("uploading VP batch: %v", err)
		}
		if res.Stored != len(pending) || res.Duplicates != 0 || res.Rejected != 0 {
			t.Fatalf("batch result %+v, want all %d stored", res, len(pending))
		}
	}
	for _, p := range police.PendingUploads() {
		if err := api.UploadTrustedVP("secret-token", p); err != nil {
			t.Fatalf("uploading trusted VP: %v", err)
		}
	}
	st, err := api.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if st.Trusted != 1 {
		t.Fatalf("trusted VPs = %d, want 1", st.Trusted)
	}
	if st.VPs < 3 {
		t.Fatalf("stored VPs = %d, want at least 3 (actual VPs + guards)", st.VPs)
	}

	// Phase 2: investigation around the convoy's road.
	if _, err := api.Investigate("wrong-token", 0, -50, 800, 50, 0); err == nil {
		t.Fatal("investigation with a bad token must fail")
	}
	legitimate, err := api.Investigate("secret-token", 0, -50, 800, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if legitimate < 2 {
		t.Fatalf("legitimate VPs = %d, want at least the two civilian VPs", legitimate)
	}
}

func TestUploadRejectsGarbage(t *testing.T) {
	sys, err := server.NewSystem(server.Config{AuthorityToken: "tok", Bank: sharedBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Garbage VP bytes bounce at the API.
	if err := api.UploadVP(&vp.Profile{}); err == nil {
		t.Error("empty profile upload should fail")
	}
}

func TestDuplicateUploadConflict(t *testing.T) {
	sys, err := server.NewSystem(server.Config{AuthorityToken: "tok", Bank: sharedBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.NewVehicle(client.VehicleConfig{Name: "dup", BytesPerSecond: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.BeginMinute(0); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 60; s++ {
		if _, err := v.Tick(geo.Pt(float64(s), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := v.EndMinute(nil); err != nil {
		t.Fatal(err)
	}
	p := v.PendingUploads()[0]
	if err := api.UploadVP(p); err != nil {
		t.Fatal(err)
	}
	if err := api.UploadVP(p); err == nil {
		t.Error("duplicate upload should conflict")
	}
}

func TestInvestigatePeriodEndpoint(t *testing.T) {
	sys, err := server.NewSystem(server.Config{AuthorityToken: "tok", Bank: sharedBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()

	// Two convoy minutes: trusted + civilian per minute.
	for m := int64(0); m < 2; m++ {
		civ, err := client.NewVehicle(client.VehicleConfig{Name: fmt.Sprintf("civ-%d", m), BytesPerSecond: 1000})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := client.NewVehicle(client.VehicleConfig{Name: fmt.Sprintf("pol-%d", m), BytesPerSecond: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*client.Vehicle{civ, pol} {
			if err := v.BeginMinute(m * 60); err != nil {
				t.Fatal(err)
			}
		}
		for s := 1; s <= 60; s++ {
			now := m*60 + int64(s)
			dc, err := civ.Tick(geo.Pt(float64(s)*10, 0))
			if err != nil {
				t.Fatal(err)
			}
			dp, err := pol.Tick(geo.Pt(float64(s)*10+40, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := civ.Hear(dp, now); err != nil {
				t.Fatal(err)
			}
			if err := pol.Hear(dc, now); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range []*client.Vehicle{civ, pol} {
			if _, _, err := v.EndMinute(nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range civ.PendingUploads() {
			if err := sys.UploadVP(p.Marshal()); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pol.PendingUploads() {
			if err := sys.UploadTrustedVP("tok", p.Marshal()); err != nil {
				t.Fatal(err)
			}
		}
	}

	body := `{"site":{"minX":0,"minY":-50,"maxX":700,"maxY":50},"firstMinute":0,"lastMinute":2}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/investigate/period", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Viewmap-Authority", "tok")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("period endpoint status %d", resp.StatusCode)
	}
	var out struct {
		Minutes []*struct {
			Legitimate []string `json:"legitimate"`
		} `json:"minutes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Minutes) != 3 {
		t.Fatalf("minutes = %d, want 3", len(out.Minutes))
	}
	if out.Minutes[0] == nil || out.Minutes[1] == nil {
		t.Error("covered minutes should produce reports")
	}
	if out.Minutes[2] != nil {
		t.Error("minute 2 has no VPs; report should be null")
	}
	if len(out.Minutes[0].Legitimate) == 0 {
		t.Error("minute 0 should verify the civilian VP")
	}
}
