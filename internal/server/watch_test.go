package server_test

// End-to-end test of GET /v1/investigate/watch: a watcher holds the
// streaming endpoint open through the wire client while batched
// uploads land concurrently, and must observe one fresh report per
// content-epoch advance — current state first, then one per wave —
// with strictly increasing epochs and a final report identical to a
// direct snapshot. Run under -race, this is also the data-race check
// on the shard's commit-notification channel.

import (
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"viewmap/internal/client"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

func TestWatchInvestigationStreamsEpochAdvances(t *testing.T) {
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

	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1500, 1500))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 90, Area: area, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, area.Center())
	var anon []*vp.Profile
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	waves := [][]*vp.Profile{anon[:30], anon[30:60], anon[60:]}
	upload := func(wave []*vp.Profile) {
		t.Helper()
		res, err := api.UploadVPBatch(wave)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stored != len(wave) {
			t.Fatalf("wave stored %d of %d", res.Stored, len(wave))
		}
	}
	if err := api.UploadTrustedVP("tok", profiles[ti]); err != nil {
		t.Fatal(err)
	}
	upload(waves[0])

	site := geo.RectAround(area.Center(), 250)
	reports := make(chan client.WatchReport, 8)
	done := make(chan error, 1)
	go func() {
		done <- api.WatchInvestigation("tok", site.Min.X, site.Min.Y, site.Max.X, site.Max.Y,
			0, 0, 3, 30*time.Second, func(r client.WatchReport) error {
				reports <- r
				return nil
			})
	}()
	recv := func(label string) client.WatchReport {
		t.Helper()
		select {
		case r := <-reports:
			return r
		case err := <-done:
			// Every report is buffered before the watch returns, so a
			// report still queued when done fires is delivery order,
			// not a premature end. Re-arm done for the clean-exit
			// check after the last recv.
			select {
			case r := <-reports:
				done <- err
				return r
			default:
			}
			t.Fatalf("watch ended before %s report: %v", label, err)
		case <-time.After(45 * time.Second):
			t.Fatalf("timed out waiting for %s report", label)
		}
		panic("unreachable")
	}

	r1 := recv("initial")
	upload(waves[1])
	r2 := recv("second")
	upload(waves[2])
	r3 := recv("third")
	if err := <-done; err != nil {
		t.Fatalf("watch did not end cleanly after maxReports: %v", err)
	}

	if !(r1.Epoch < r2.Epoch && r2.Epoch < r3.Epoch) {
		t.Fatalf("epochs not strictly increasing: %d, %d, %d", r1.Epoch, r2.Epoch, r3.Epoch)
	}
	if !(r1.Members < r3.Members && r1.Members <= r2.Members && r2.Members <= r3.Members) {
		t.Fatalf("members did not grow across waves: %d, %d, %d", r1.Members, r2.Members, r3.Members)
	}

	snap, epoch, err := sys.InvestigateSnapshot("tok", site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != r3.Epoch {
		t.Fatalf("final streamed epoch %d, snapshot epoch %d", r3.Epoch, epoch)
	}
	if fmt.Sprint(r3.Legitimate) != fmt.Sprint(snap.Legitimate) {
		t.Fatal("final streamed legitimate set diverges from a direct snapshot")
	}
}

// TestWatchInvestigationResumesFromEpoch pins the resume contract: a
// second watch passing the last delivered epoch as fromEpoch receives
// nothing for unchanged content and ends cleanly at its timeout.
func TestWatchInvestigationResumesFromEpoch(t *testing.T) {
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
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1500, 1500))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 40, Area: area, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, area.Center())
	if err := api.UploadTrustedVP("tok", profiles[ti]); err != nil {
		t.Fatal(err)
	}
	var anon []*vp.Profile
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	if _, err := api.UploadVPBatch(anon); err != nil {
		t.Fatal(err)
	}

	site := geo.RectAround(area.Center(), 250)
	var last uint64
	err = api.WatchInvestigation("tok", site.Min.X, site.Min.Y, site.Max.X, site.Max.Y,
		0, 0, 1, 10*time.Second, func(r client.WatchReport) error {
			last = r.Epoch
			return nil
		})
	if err != nil || last == 0 {
		t.Fatalf("first watch: epoch %d, err %v", last, err)
	}
	calls := 0
	err = api.WatchInvestigation("tok", site.Min.X, site.Min.Y, site.Max.X, site.Max.Y,
		0, last, 1, 300*time.Millisecond, func(client.WatchReport) error {
			calls++
			return nil
		})
	if err != nil {
		t.Fatalf("resumed watch did not end cleanly: %v", err)
	}
	if calls != 0 {
		t.Fatalf("resumed watch re-delivered %d reports for unchanged content", calls)
	}
}

// TestWatchRefusesNonFiniteSite pins a cache-poisoning bug: a watch
// whose site had a NaN coordinate answered 400 but left a site-cache
// entry under a NaN key, which no lookup or eviction can find again.
// Once such entries filled the minute's cache, the next new site
// panicked in the eviction. Non-finite sites are refused before
// the cache, from the query and from Go callers alike.
func TestWatchRefusesNonFiniteSite(t *testing.T) {
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(500, 500))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 30, Area: area, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, area.Center())
	newSystem := func() *server.System {
		t.Helper()
		sys, err := server.NewSystem(server.Config{AuthorityToken: "tok", Bank: sharedBank(t)})
		if err != nil {
			t.Fatal(err)
		}
		var anon []*vp.Profile
		for i, p := range profiles {
			if i != ti {
				anon = append(anon, p)
			}
		}
		if err := sys.UploadTrustedVP("tok", profiles[ti].Marshal()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.UploadVPBatch(vp.MarshalBatch(anon)); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := newSystem()
	h := server.Handler(sys)

	params := []string{"minX", "minY", "maxX", "maxY"}
	bad := []string{"NaN", "Inf", "-Inf", "+Inf", "nan", "-infinity"}
	for i := 0; i < 12; i++ {
		q := url.Values{"minX": {"0"}, "minY": {"0"}, "maxX": {"500"}, "maxY": {"500"},
			"minute": {"0"}, "maxReports": {"1"}}
		param := params[i%len(params)]
		q.Set(param, bad[i%len(bad)])
		req := httptest.NewRequest("GET", "/v1/investigate/watch?"+q.Encode(), nil)
		req.Header.Set("X-Viewmap-Authority", "tok")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), param) {
			t.Fatalf("watch with %s=%s: status %d, body %q; want 400 naming %s",
				param, q.Get(param), rec.Code, rec.Body.String(), param)
		}
	}
	for _, site := range []geo.Rect{
		geo.NewRect(geo.Pt(math.NaN(), 0), geo.Pt(500, 500)),
		geo.NewRect(geo.Pt(0, math.Inf(-1)), geo.Pt(500, 500)),
		geo.NewRect(geo.Pt(0, 0), geo.Pt(math.Inf(1), 500)),
	} {
		if _, err := sys.Investigate("tok", site, 0); err == nil {
			t.Fatalf("Investigate(%v) succeeded, want a refusal", site)
		}
	}

	// More finite sites than the cache holds, so eviction runs.
	fresh := newSystem()
	for i := 0; i < 10; i++ {
		site := geo.RectAround(area.Center(), 120+float64(10*i))
		got, gotErr := sys.Investigate("tok", site, 0)
		want, wantErr := fresh.Investigate("tok", site, 0)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("site %d: got (%+v, %v), a fresh system gives (%+v, %v)", i, got, gotErr, want, wantErr)
		}
	}
}
