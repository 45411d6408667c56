package client

// Backpressure-handling tests: the client honors the server's
// Retry-After hint on 429, falls back to exponential backoff without
// one, rotates its session id on every attempt, and counts every shed
// response it observes.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// shedServer answers 429 (with the given Retry-After header when
// non-empty) for the first sheds requests, then 200 with an empty
// evidence board. It records each attempt's X-Session header.
type shedServer struct {
	mu         sync.Mutex
	sheds      int
	retryAfter string
	sessions   []string
}

func (s *shedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = append(s.sessions, r.Header.Get("X-Session"))
	if len(s.sessions) <= s.sheds {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
		return
	}
	w.Write([]byte(`{"offers":[]}`))
}

// retryHarness builds an API against the shed server with a recording
// sleeper, so waits are asserted without actually sleeping.
func retryHarness(t *testing.T, sheds int, retryAfter string, retries int) (*API, *shedServer, *[]time.Duration) {
	t.Helper()
	shed := &shedServer{sheds: sheds, retryAfter: retryAfter}
	ts := httptest.NewServer(shed)
	t.Cleanup(ts.Close)
	api, err := NewAPI(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	waits := &[]time.Duration{}
	api.SetRetryPolicy(retries, 10*time.Millisecond, func(d time.Duration) {
		*waits = append(*waits, d)
	})
	return api, shed, waits
}

// TestRetryHonorsRetryAfter pins the satellite behavior: a 429 with
// "Retry-After: 2" makes the client wait at least two seconds (plus
// bounded jitter) before each retry, and the request ultimately
// succeeds.
func TestRetryHonorsRetryAfter(t *testing.T) {
	api, shed, waits := retryHarness(t, 2, "2", 4)
	offers, err := api.EvidenceBoard()
	if err != nil {
		t.Fatalf("EvidenceBoard after retries: %v", err)
	}
	if len(offers) != 0 {
		t.Fatalf("offers = %v", offers)
	}
	if len(shed.sessions) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(shed.sessions))
	}
	if len(*waits) != 2 {
		t.Fatalf("client slept %d times, want 2", len(*waits))
	}
	for i, w := range *waits {
		if w < 2*time.Second || w > 3*time.Second {
			t.Fatalf("wait %d = %v, want [2s, 3s] (Retry-After honored + <=50%% jitter)", i, w)
		}
	}
	if got := api.Seen429(); got != 2 {
		t.Fatalf("Seen429 = %d, want 2", got)
	}
	// The anonymity discipline holds across retries: every attempt
	// used a fresh single-use session id.
	seen := map[string]bool{}
	for _, sid := range shed.sessions {
		if sid == "" || seen[sid] {
			t.Fatalf("session id %q reused across retry attempts", sid)
		}
		seen[sid] = true
	}
}

// TestRetryExponentialBackoffWithoutHint checks the fallback: absent a
// Retry-After header the waits grow exponentially from the configured
// base, each with at most 50% jitter.
func TestRetryExponentialBackoffWithoutHint(t *testing.T) {
	api, _, waits := retryHarness(t, 3, "", 4)
	if _, err := api.EvidenceBoard(); err != nil {
		t.Fatal(err)
	}
	if len(*waits) != 3 {
		t.Fatalf("client slept %d times, want 3", len(*waits))
	}
	base := 10 * time.Millisecond
	for i, w := range *waits {
		lo := base << i
		hi := lo + lo/2
		if w < lo || w > hi {
			t.Fatalf("wait %d = %v, want [%v, %v]", i, w, lo, hi)
		}
	}
}

// TestRetryBudgetExhausted checks that a persistently overloaded
// server eventually surfaces the 429 as an error, with every shed
// attempt counted.
func TestRetryBudgetExhausted(t *testing.T) {
	api, shed, waits := retryHarness(t, 1<<30, "1", 2)
	if _, err := api.EvidenceBoard(); err == nil {
		t.Fatal("persistent 429 should surface as an error")
	}
	if len(shed.sessions) != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", len(shed.sessions))
	}
	if len(*waits) != 2 {
		t.Fatalf("client slept %d times, want 2", len(*waits))
	}
	if got := api.Seen429(); got != 3 {
		t.Fatalf("Seen429 = %d, want 3", got)
	}
}

// TestRetryWaitParsesBothRetryAfterForms pins retryWait to RFC 9110
// §10.2.3: Retry-After may be delay-seconds or an HTTP-date, and both
// must be honored; garbage and past dates fall back to the
// exponential schedule. The pre-fix parser only understood the
// integer form, so an HTTP-date hint silently degraded to the (much
// shorter) backoff and the client hammered a server that had asked
// for a longer pause.
func TestRetryWaitParsesBothRetryAfterForms(t *testing.T) {
	api, _, _ := retryHarness(t, 0, "", 4)
	base := 10 * time.Millisecond

	// Delay-seconds form: 3 seconds plus at most 50% jitter.
	if w := api.retryWait("3", 0); w < 3*time.Second || w > 4500*time.Millisecond {
		t.Fatalf("delay-seconds wait = %v, want [3s, 4.5s]", w)
	}

	// HTTP-date form: a date ~5s out yields a wait near that span
	// (slightly less by the time it is computed) plus jitter.
	date := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if w := api.retryWait(date, 0); w < 3500*time.Millisecond || w > 8*time.Second {
		t.Fatalf("HTTP-date wait = %v, want roughly [3.5s, 8s]", w)
	}

	// A date in the past carries no usable pause: exponential fallback.
	past := time.Now().Add(-5 * time.Second).UTC().Format(http.TimeFormat)
	if w := api.retryWait(past, 1); w < base<<1 || w > (base<<1)*3/2 {
		t.Fatalf("past-date wait = %v, want exponential fallback [%v, %v]", w, base<<1, (base<<1)*3/2)
	}

	// Garbage: exponential fallback too.
	if w := api.retryWait("soonish", 0); w < base || w > base*3/2 {
		t.Fatalf("garbage wait = %v, want [%v, %v]", w, base, base*3/2)
	}
}
