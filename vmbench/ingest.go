package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// ingest is the write-only stream: two closed-loop uploaders POST
// 64-record /v1/vp/batch bodies, plus one /v1/vp/trusted seed per
// minute, into a durable retention-on system. Minutes advance in
// order at about 100 VPs each; the uploader that opens a minute first
// runs the minute-boundary maintenance (ApplyRetention every minute, a
// Checkpoint every checkpointEvery minutes). An op is one acknowledged
// VP; the latency sample is one batch's ack.
type ingest struct {
	jobs    []ingestJob
	offered int
	minutes int
	area    geo.Rect
}

type ingestJob struct {
	minute  int64
	trusted bool
	// maint marks the first job of a minute after the first: the
	// minute-boundary maintenance runs before it.
	maint bool
	body  []byte
	n     int
}

const (
	ingestBatch      = 64
	ingestPerMinute  = 100
	ingestRetention  = 4
	checkpointEvery  = 4
	ingestUploaders  = 2
	ingestAreaMeters = 2000
)

// streamArea is the square the synthetic fleets drive in.
func streamArea() geo.Rect {
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(ingestAreaMeters, ingestAreaMeters))
}

func newIngest(cfg benchConfig) (*ingest, error) {
	w := &ingest{minutes: 48, area: streamArea()}
	if cfg.tiny {
		w.minutes = 6
	}
	var pending []*vp.Profile
	flush := func(all bool) {
		for len(pending) >= ingestBatch || (all && len(pending) > 0) {
			n := min(ingestBatch, len(pending))
			w.jobs = append(w.jobs, ingestJob{minute: pending[0].Minute(), body: vp.MarshalBatch(pending[:n]), n: n})
			pending = pending[n:]
		}
	}
	for m := 0; m < w.minutes; m++ {
		ps, err := synthMinute(ingestPerMinute, w.area, int64(m), cfg.seed*1_000_003+int64(m))
		if err != nil {
			return nil, err
		}
		ti := core.MarkTrustedNearest(ps, w.area.Center())
		w.jobs = append(w.jobs, ingestJob{minute: int64(m), trusted: true, maint: m > 0, body: ps[ti].Marshal(), n: 1})
		for i, p := range ps {
			if i != ti {
				pending = append(pending, p)
			}
		}
		flush(false)
		w.offered += len(ps)
	}
	flush(true)
	return w, nil
}

func (w *ingest) setup(env *roundEnv) (*server.System, error) {
	return openDurable(env, ingestRetention)
}

// maintain runs the minute-boundary maintenance that the background
// loops would otherwise run on timers. Callers serialize it, as the
// server's single retention goroutine does: two concurrent
// ApplyRetention calls race on the same segment temp file.
func maintain(sys *server.System, minute int64) error {
	if _, err := sys.Store().ApplyRetention(); err != nil {
		return err
	}
	if minute%checkpointEvery == 0 {
		return sys.Checkpoint()
	}
	return nil
}

func (w *ingest) exec(env *roundEnv, sys *server.System, rec *recorder) error {
	h := server.Handler(sys)
	var next atomic.Int64
	var wg sync.WaitGroup
	var maintMu sync.Mutex
	errs := make([]error, ingestUploaders)
	for u := 0; u < ingestUploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.jobs) {
					return
				}
				j := w.jobs[i]
				if j.maint {
					maintMu.Lock()
					start := time.Now()
					err := maintain(sys, j.minute)
					rec.span("server.maint", time.Since(start))
					maintMu.Unlock()
					if err != nil {
						errs[u] = err
						return
					}
				}
				uploadJob(h, j, rec)
			}
		}(u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// uploadJob posts one trusted seed or batch and records its outcome;
// stored VPs are the op count.
func uploadJob(h http.Handler, j ingestJob, rec *recorder) {
	rec.unit("vp.decode", float64(j.n))
	if j.trusted {
		start := time.Now()
		code, _ := call(h, "POST", "/v1/vp/trusted", j.body, authority)
		rec.sample("trusted", time.Since(start))
		if code != http.StatusCreated {
			rec.fail("trusted upload for minute %d: status %d", j.minute, code)
			rec.attempt(1, 1)
			return
		}
		rec.count(1)
		rec.attempt(1, 0)
		rec.unit("core.link", 1)
		return
	}
	start := time.Now()
	code, body := call(h, "POST", "/v1/vp/batch", j.body, nil)
	ack := time.Since(start)
	rec.sample("upload", ack)
	var res struct{ Stored, Duplicates, Rejected int }
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &res); err != nil {
			rec.fail("batch reply: %v", err)
		}
	} else {
		rec.fail("batch for minute %d: status %d", j.minute, code)
	}
	if res.Duplicates != 0 || res.Rejected != 0 || res.Stored != j.n {
		rec.fail("batch for minute %d stored %d of %d (%d duplicates, %d rejected)", j.minute, res.Stored, j.n, res.Duplicates, res.Rejected)
	}
	rec.op(res.Stored, ack)
	rec.attempt(j.n, j.n-res.Stored)
	rec.unit("vp.batch", float64(res.Stored))
	rec.unit("core.link", float64(res.Stored))
}

func (w *ingest) check(env *roundEnv, sys *server.System, rec *recorder) error {
	st := sys.Store()
	if st.Len() != w.offered {
		rec.fail("stored %d VPs, offered %d", st.Len(), w.offered)
	}
	is := st.IngestStatsSnapshot()
	if is.Rejected+is.WireRejected+is.Duplicates+is.Stale != 0 {
		rec.fail("ingest counters %+v, want all zero", is)
	}
	// Sampled minutes — the first (evicted to a segment) and the last
	// (resident) — must match a from-scratch core.Build.
	for _, m := range []int64{0, int64(w.minutes - 1)} {
		if err := matchBuild(sys, w.area, m, rec); err != nil {
			return err
		}
	}
	return nil
}

// matchBuild compares the served viewmap of a minute with core.Build
// over the stored profiles, in members and edges.
func matchBuild(sys *server.System, area geo.Rect, m int64, rec *recorder) error {
	site := geo.RectAround(area.Center(), 1500)
	served, err := sys.Store().ViewmapFor(site, m)
	if err != nil {
		return fmt.Errorf("viewmap for minute %d: %w", m, err)
	}
	rebuilt, err := core.Build(sys.Store().Minute(m), core.BuildConfig{Site: site, Minute: m, RequirePlausible: true})
	if err != nil {
		return fmt.Errorf("rebuilding minute %d: %w", m, err)
	}
	if served.Len() != rebuilt.Len() || served.NumEdges() != rebuilt.NumEdges() {
		rec.fail("minute %d: served %d members/%d edges, core.Build %d/%d",
			m, served.Len(), served.NumEdges(), rebuilt.Len(), rebuilt.NumEdges())
	}
	return nil
}

func (w *ingest) residentVPs(sys *server.System) int { return residentVPs(sys) }

func residentVPs(sys *server.System) int {
	n := 0
	for _, s := range sys.Store().ShardStats() {
		n += s.VPs
	}
	return n
}

func (w *ingest) layerPass(lc *layerCosts) error {
	var bodies [][]byte
	for _, j := range w.jobs {
		if !j.trusted {
			bodies = append(bodies, j.body)
		}
	}
	decoded, err := vpPass(bodies, lc)
	if err != nil {
		return err
	}
	// Link in stream order: each minute's trusted seed first, then its
	// batched records, committing per batch as the link worker does.
	byMinute := make(map[int64][]*vp.Profile)
	for _, j := range w.jobs {
		if j.trusted {
			p, err := vp.Unmarshal(j.body)
			if err != nil {
				return err
			}
			p.Trusted = true
			byMinute[p.Minute()] = append(byMinute[p.Minute()], p)
		}
	}
	for _, p := range decoded {
		byMinute[p.Minute()] = append(byMinute[p.Minute()], p)
	}
	var ordered []*vp.Profile
	for m := 0; m < w.minutes; m++ {
		ordered = append(ordered, byMinute[int64(m)]...)
	}
	corePass(ordered, ingestBatch, lc)
	return nil
}
