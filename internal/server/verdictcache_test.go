package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// TestVerdictCacheStalestFirstEviction pins the verdict cache's
// eviction order: when the cache is full, the entry whose recency
// stamp is lowest — the stalest one — is deleted, and nothing else.
// The pre-fix code deleted whatever map entry Go's iteration order
// produced first, so a hot entry could be evicted while a dead one
// survived indefinitely.
func TestVerdictCacheStalestFirstEviction(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: durBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	uploadMinute(t, 0, 20, 5, sys)

	// Fill the cache to capacity with synthetic entries whose recency
	// stamps are their insertion order; key 0 is the stalest.
	sys.verdictMu.Lock()
	for i := 0; i < verdictCacheMax; i++ {
		key := investigationKey{
			site:   geo.RectAround(geo.Pt(float64(i)*10, 9e6), 5),
			minute: 999,
		}
		sys.verdictSeq++
		sys.verdicts[key] = &verdictEntry{
			epoch: 1, verdict: &core.Verdict{}, used: sys.verdictSeq,
		}
	}
	stalest := investigationKey{site: geo.RectAround(geo.Pt(0, 9e6), 5), minute: 999}
	second := investigationKey{site: geo.RectAround(geo.Pt(10, 9e6), 5), minute: 999}
	sys.verdictMu.Unlock()

	// A real investigation inserts a fresh entry, forcing one eviction.
	if _, err := sys.Investigate("t", durSite, 0); err != nil {
		t.Fatal(err)
	}

	sys.verdictMu.Lock()
	defer sys.verdictMu.Unlock()
	if len(sys.verdicts) != verdictCacheMax {
		t.Fatalf("cache holds %d entries, want %d", len(sys.verdicts), verdictCacheMax)
	}
	if sys.verdicts[stalest] != nil {
		t.Fatal("stalest entry survived the eviction")
	}
	if sys.verdicts[second] == nil {
		t.Fatal("second-stalest entry was evicted instead of the stalest")
	}
	if sys.verdicts[investigationKey{site: durSite, minute: 0}] == nil {
		t.Fatal("fresh investigation was not cached")
	}
}

// TestVerdictCacheHitAcrossEvictReload pins the cache's identity
// contract across eviction. The entry carries the minute's builder
// epoch, which eviction records with the segment, so re-investigating
// the unchanged evicted minute is answered from the cache: no reload,
// no cold residency, no TrustRank run, and the same report field for
// field. A late upload into the minute inside the site's coverage moves
// the epoch; once that minute is evicted again, the next investigation
// reloads it exactly once and reports what an always-resident control
// reports.
func TestVerdictCacheHitAcrossEvictReload(t *testing.T) {
	sys := openDurable(t, t.TempDir(), 2)
	defer sys.Close()
	control := controlSystem(t)
	st := sys.Store()

	uploadMinute(t, 0, 20, 5, sys, control)
	first, err := sys.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	verified := func() uint64 {
		var n uint64
		for _, s := range sys.TrustRankStats() {
			n += s.Verifications
		}
		return n
	}
	before := verified()
	if before == 0 {
		t.Fatal("first investigation recorded no verification")
	}

	// Age minute 0 out past the retention horizon.
	for m := int64(1); m <= 3; m++ {
		uploadMinute(t, m, 12, 5+m, sys, control)
		if _, err := st.ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ch := st.MinuteChange(0); ch != nil {
		t.Fatal("minute 0 was never evicted; the test exercises nothing")
	}

	ret := st.RetentionStatsSnapshot()
	again, err := sys.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after := st.RetentionStatsSnapshot(); after.Reloads != ret.Reloads || after.ColdResident != ret.ColdResident {
		t.Fatalf("cached re-investigation of the evicted minute reloaded it: reloads %d -> %d, cold resident %d -> %d",
			ret.Reloads, after.Reloads, ret.ColdResident, after.ColdResident)
	}
	if after := verified(); after != before {
		t.Fatalf("re-investigation after eviction re-verified (%d -> %d runs); cache identity broken", before, after)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached report diverges across eviction:\n%+v\n%+v", first, again)
	}

	// A late upload inside the site's coverage reloads the minute to
	// commit into it.
	late := lateProfileInSite(t, 0, durSite, 91)
	ret = st.RetentionStatsSnapshot()
	for _, target := range []*System{sys, control} {
		if err := target.UploadVP(late.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.RetentionStatsSnapshot().Reloads - ret.Reloads; got != 1 {
		t.Fatalf("late upload into the evicted minute reloaded it %d times, want 1", got)
	}
	// Reloading minute 1 trims the cold set (bound 1), which spills the
	// changed minute 0 again.
	if _, err := sys.InvestigateReport("t", durSite, 1); err != nil {
		t.Fatal(err)
	}
	if _, ch := st.MinuteChange(0); ch != nil {
		t.Fatal("minute 0 stayed resident; the reload below is not exercised")
	}
	ret = st.RetentionStatsSnapshot()
	got, err := sys.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.RetentionStatsSnapshot().Reloads - ret.Reloads; n != 1 {
		t.Fatalf("investigation after the late upload reloaded %d times, want 1", n)
	}
	want, err := control.Investigate("t", durSite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report after the late upload diverges from the resident control:\n%+v\n%+v", got, want)
	}
	if got.Members != first.Members+1 {
		t.Fatalf("late upload inside the site: %d members, want %d", got.Members, first.Members+1)
	}
}

// lateProfileInSite synthesizes a profile of the given minute whose
// trajectory enters site, for late uploads that must change the
// site's viewmap.
func lateProfileInSite(t testing.TB, minute int64, site geo.Rect, seed int64) *vp.Profile {
	t.Helper()
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 20, Area: durArea, Minute: minute, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if p.EntersArea(site) {
			return p
		}
	}
	t.Fatalf("seed %d: no synthesized profile enters the site", seed)
	return nil
}

// TestInvestigatePeriodCap pins the period bound to exactly 60
// minutes: the pre-fix comparison admitted 61.
func TestInvestigatePeriodCap(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: durBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InvestigatePeriod("t", durSite, 0, 60); err == nil {
		t.Fatal("61-minute period accepted; the cap is off by one")
	}
	reports, err := sys.InvestigatePeriod("t", durSite, 0, 59)
	if err != nil {
		t.Fatalf("60-minute period rejected: %v", err)
	}
	if len(reports) != 60 {
		t.Fatalf("got %d reports, want 60", len(reports))
	}
	for m, r := range reports {
		if r != nil {
			t.Fatalf("minute %d: empty store produced a non-nil report", m)
		}
	}
}

// TestInvestigatePeriodPropagatesTransientErrors distinguishes the two
// kinds of per-minute failure: benign absences (nothing stored, no
// trusted VP) skip with a nil report, but a transient fault — here an
// evicted minute whose segment file is corrupt — must abort the period
// with the minute's error. The pre-fix loop swallowed every error into
// a nil report, silently presenting unreadable minutes as empty ones.
func TestInvestigatePeriodPropagatesTransientErrors(t *testing.T) {
	sys := openDurable(t, t.TempDir(), 2)
	defer sys.Close()

	for m := int64(0); m <= 3; m++ {
		uploadMinute(t, m, 15, 40+m, sys)
		if _, err := sys.Store().ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	if ret := sys.Store().RetentionStatsSnapshot(); ret.EvictedMinutes == 0 {
		t.Fatal("no minute was evicted")
	}
	if err := os.WriteFile(sys.Store().segmentPath(0), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := sys.InvestigatePeriod("t", durSite, 0, 3)
	if err == nil {
		t.Fatal("period over a corrupt segment reported success")
	}
	if !strings.Contains(err.Error(), "minute 0") {
		t.Fatalf("error does not name the broken minute: %v", err)
	}
	if errors.Is(err, ErrNoMinute) {
		t.Fatalf("corrupt segment classified as a benign absence: %v", err)
	}
}

// TestInvestigatePeriodExtremeBounds pins the period arithmetic at the
// ends of int64. The pre-fix span lastMinute-firstMinute+1 overflowed,
// so (MinInt64, MaxInt64) passed the cap, and the minute loop wrapped
// after MaxInt64, so (MaxInt64-5, MaxInt64) never ended; both kept
// appending one nil report per minute.
func TestInvestigatePeriodExtremeBounds(t *testing.T) {
	sys := controlSystem(t)
	period := func(first, last int64) ([]*InvestigationReport, error) {
		t.Helper()
		type result struct {
			reports []*InvestigationReport
			err     error
		}
		done := make(chan result, 1)
		go func() {
			r, err := sys.InvestigatePeriod("t", durSite, first, last)
			done <- result{r, err}
		}()
		select {
		case r := <-done:
			return r.reports, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("InvestigatePeriod(%d, %d) still running after 5 s", first, last)
			return nil, nil
		}
	}
	if _, err := period(math.MinInt64, math.MaxInt64); err == nil || !strings.Contains(err.Error(), "60-minute cap") {
		t.Fatalf("full int64 period: %v, want the cap error", err)
	}
	reports, err := period(math.MaxInt64-5, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 6 {
		t.Fatalf("got %d reports, want 6", len(reports))
	}
	for i, r := range reports {
		if r != nil {
			t.Fatalf("minute MaxInt64-%d: empty store produced a report", 5-i)
		}
	}

	status, body := serveAuthority(t, sys, "/v1/investigate/period", map[string]any{
		"site": siteJSON(durSite), "firstMinute": int64(math.MinInt64), "lastMinute": int64(math.MaxInt64),
	})
	if status != http.StatusBadRequest {
		t.Fatalf("extreme period over HTTP: %d %s, want 400", status, body)
	}
}

// TestReloadFailureIs503 pins the status docs/http-api.md promises for
// a segment that cannot be reloaded: 503, like any durability fault,
// whether the file is corrupt or gone, on /v1/investigate,
// /v1/investigate/period and a late /v1/vp upload alike. The message
// names the minute but not the server's segment path. The pre-fix
// reload errors were plain and answered 400, and a missing file's
// error carried its absolute path.
func TestReloadFailureIs503(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"corrupt", func(path string) error { return os.WriteFile(path, []byte("not a segment"), 0o644) }},
		{"missing", os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := openDurable(t, dir, 2)
			defer sys.Close()
			for m := int64(0); m <= 3; m++ {
				uploadMinute(t, m, 12, 80+m, sys)
				if _, err := sys.Store().ApplyRetention(); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.damage(sys.Store().segmentPath(0)); err != nil {
				t.Fatal(err)
			}
			for _, req := range []struct {
				path string
				body map[string]any
			}{
				{"/v1/investigate", map[string]any{"site": siteJSON(durSite), "minute": 0}},
				{"/v1/investigate/period", map[string]any{"site": siteJSON(durSite), "firstMinute": 0, "lastMinute": 3}},
			} {
				status, body := serveAuthority(t, sys, req.path, req.body)
				if status != http.StatusServiceUnavailable {
					t.Fatalf("%s over a %s segment: %d %s, want 503", req.path, tc.name, status, body)
				}
				if !strings.Contains(body, "minute 0") {
					t.Fatalf("%s: error does not name the minute: %s", req.path, body)
				}
				if strings.Contains(body, dir) {
					t.Fatalf("%s: error leaks the segment directory: %s", req.path, body)
				}
			}
			// A late upload reaches the same reload through ensureShard.
			late := lateProfileInSite(t, 0, durSite, 93)
			rec := httptest.NewRecorder()
			Handler(sys).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/vp", bytes.NewReader(late.Marshal())))
			if rec.Code != http.StatusServiceUnavailable || strings.Contains(rec.Body.String(), dir) {
				t.Fatalf("late upload into a %s segment's minute: %d %s, want 503 without the path", tc.name, rec.Code, rec.Body)
			}
		})
	}
}

// serveAuthority sends one authority POST with a JSON body through the
// HTTP handler and returns the status and response body.
func serveAuthority(t testing.TB, sys *System, path string, body any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set(authorityHeader, "t")
	rec := httptest.NewRecorder()
	Handler(sys).ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// siteJSON is a site rectangle in the request wire shape.
func siteJSON(r geo.Rect) map[string]float64 {
	return map[string]float64{"minX": r.Min.X, "minY": r.Min.Y, "maxX": r.Max.X, "maxY": r.Max.Y}
}

// TestStatusForDurability pins the error mapping docs/operations.md
// promises: a durability fault answers 503, not a client-fault 4xx.
func TestStatusForDurability(t *testing.T) {
	if got := statusFor(ErrDurability); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(ErrDurability) = %d, want 503", got)
	}
	if got := statusFor(fmt.Errorf("wal append: %w", ErrDurability)); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(wrapped ErrDurability) = %d, want 503", got)
	}
}
