package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"slices"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// cacheSites are the investigation sites of the cached-report property
// test: the shared durSite and two more inside durArea.
var cacheSites = []geo.Rect{
	durSite,
	geo.RectAround(geo.Pt(450, 450), 250),
	geo.RectAround(geo.Pt(1050, 1000), 250),
}

// TestInvestigateCachedReportProperty drives a durable system with
// retention 2 and a cold set of 1 through seeded sequences of waves
// into the newest minute, late uploads into older (often evicted)
// minutes, retention sweeps, investigations and watch snapshots of
// random (site, minute) pairs, and reopens through OpenDurable. An
// always-resident control receives the same uploads. Every report and
// content epoch must equal the control's, whether the system answered
// from the cached report, a resident minute or a reload.
func TestInvestigateCachedReportProperty(t *testing.T) {
	seeds, steps := 4, 200
	if testing.Short() {
		seeds, steps = 2, 120
	}
	var evictedHits, lateEvicted int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h, l := runCachedReportProperty(t, seed, steps)
			evictedHits += h
			lateEvicted += l
		})
	}
	if t.Failed() {
		return
	}
	// The property is only as strong as the paths it reached.
	if evictedHits == 0 {
		t.Error("no investigation of an evicted minute was answered from the cache")
	}
	if lateEvicted == 0 {
		t.Error("no late upload landed in an evicted minute")
	}
}

// runCachedReportProperty runs one seeded sequence and returns how many
// investigations of an evicted minute were answered without a reload,
// and how many late uploads landed in an evicted minute.
func runCachedReportProperty(t *testing.T, seed int64, steps int) (evictedHits, lateEvicted int) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 2)
	defer func() { sys.Close() }()
	control := controlSystem(t)
	rng := rand.New(rand.NewSource(seed))
	newest := int64(-1)
	evicted := func(m int64) bool {
		epoch, ch := sys.Store().MinuteChange(m)
		return ch == nil && epoch > 0
	}
	wave := func() {
		newest++
		uploadMinute(t, newest, 10+rng.Intn(8), seed*1000+newest, sys, control)
	}
	// recent picks one of the newest n minutes up to newest, so keys
	// repeat and sweeps leave some of them evicted.
	recent := func(newest int64, n int64) int64 { return newest - rng.Int63n(min(newest+1, n)) }
	wave()
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 3:
			wave()
		case op < 6:
			if newest == 0 {
				wave()
				continue
			}
			m := recent(newest-1, 6)
			if evicted(m) {
				lateEvicted++
			}
			src, err := core.SynthesizeLegitimate(core.SynthConfig{
				N: 3, Area: durArea, Minute: m, Seed: seed*1000 + 500 + int64(step),
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := vp.MarshalBatch(src[:1+rng.Intn(len(src))])
			for _, target := range []*System{sys, control} {
				if _, err := target.UploadVPBatch(batch); err != nil {
					t.Fatalf("step %d: late upload into minute %d: %v", step, m, err)
				}
			}
		case op < 10:
			if _, err := sys.Store().ApplyRetention(); err != nil {
				t.Fatal(err)
			}
		case op < 19:
			site := cacheSites[rng.Intn(len(cacheSites))]
			m := recent(newest, 4)
			wasEvicted := evicted(m)
			reloads := sys.Store().RetentionStatsSnapshot().Reloads
			var got, want *InvestigationReport
			var gotEpoch, wantEpoch uint64
			var gotErr, wantErr error
			if op < 16 {
				got, gotErr = sys.Investigate("t", site, m)
				want, wantErr = control.Investigate("t", site, m)
			} else {
				got, gotEpoch, gotErr = sys.InvestigateSnapshot("t", site, m)
				want, wantEpoch, wantErr = control.InvestigateSnapshot("t", site, m)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d: (site %v, minute %d): error %v, control %v", step, site, m, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) || gotEpoch != wantEpoch {
				t.Fatalf("step %d: (site %v, minute %d): report %+v at epoch %d, control %+v at epoch %d",
					step, site, m, got, gotEpoch, want, wantEpoch)
			}
			if wasEvicted && gotErr == nil && sys.Store().RetentionStatsSnapshot().Reloads == reloads {
				evictedHits++
			}
		default:
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			sys = openDurable(t, dir, 2)
		}
	}
	return evictedHits, lateEvicted
}

// TestCachedReportIsACopy checks that callers own the reports they are
// handed: changing the Legitimate slice of a report from Investigate,
// InvestigateSnapshot, InvestigateReport or OpenSolicitation leaves the
// cached report, and so the next answer, unchanged.
func TestCachedReportIsACopy(t *testing.T) {
	sys := controlSystem(t)
	uploadMinute(t, 0, 20, 5, sys)
	first, err := sys.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Legitimate) == 0 {
		t.Fatal("no legitimate VP; the test checks nothing")
	}
	want := slices.Clone(first.Legitimate)
	scribble := func(ids []vd.VPID) {
		for i := range ids {
			ids[i] = vd.VPID{0xff}
		}
	}
	check := func(label string) {
		t.Helper()
		r, err := sys.Investigate("t", durSite, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Legitimate, want) {
			t.Fatalf("after changing the %s report, the next answer changed", label)
		}
	}
	scribble(first.Legitimate)
	check("Investigate")
	snap, _, err := sys.InvestigateSnapshot("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	scribble(snap.Legitimate)
	check("InvestigateSnapshot")
	full, err := sys.InvestigateReport("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	scribble(full.Legitimate)
	check("InvestigateReport")
	sol, err := sys.OpenSolicitation("t", durSite, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	scribble(sol.Legitimate)
	check("OpenSolicitation")
}

// TestCachedReportSurvivesLostSegment pins what a damaged segment
// still serves. A report cached before the minute was evicted was
// verified from the very content the segment held, so /v1/investigate
// keeps answering it when the file is corrupted afterwards; lookups
// that need the minute's graph — an uncached site,
// /v1/investigate/report, an evidence lookup — fail, and the HTTP ones
// answer 503.
func TestCachedReportSurvivesLostSegment(t *testing.T) {
	sys := openDurable(t, t.TempDir(), 2)
	defer sys.Close()
	uploadMinute(t, 0, 20, 5, sys)
	cached, err := sys.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := sys.Store().Minute(0)
	for m := int64(1); m <= 3; m++ {
		uploadMinute(t, m, 12, 5+m, sys)
		if _, err := sys.Store().ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ch := sys.Store().MinuteChange(0); ch != nil {
		t.Fatal("minute 0 was never evicted")
	}
	if err := os.WriteFile(sys.Store().segmentPath(0), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	body := map[string]any{"site": siteJSON(durSite), "minute": 0}
	status, resp := serveAuthority(t, sys, "/v1/investigate", body)
	if status != http.StatusOK {
		t.Fatalf("/v1/investigate of the cached minute: %d %s, want 200", status, resp)
	}
	got, err := sys.Investigate("t", durSite, 0)
	if err != nil || !reflect.DeepEqual(got, cached) {
		t.Fatalf("cached report after the segment was lost: %+v, %v; want %+v", got, err, cached)
	}
	if status, resp := serveAuthority(t, sys, "/v1/investigate/report", body); status != http.StatusServiceUnavailable {
		t.Fatalf("/v1/investigate/report needs the graph: %d %s, want 503", status, resp)
	}
	other := map[string]any{"site": siteJSON(cacheSites[1]), "minute": 0}
	if status, resp := serveAuthority(t, sys, "/v1/investigate", other); status != http.StatusServiceUnavailable {
		t.Fatalf("uncached site of the lost minute: %d %s, want 503", status, resp)
	}
	if _, ok := sys.Store().Get(ids[0].ID()); ok {
		t.Fatal("evidence lookup served a profile of the lost segment")
	}
}
