package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// investigate is the read-only authority stream. Set-up preloads many
// minutes into a durable, retention-on system, so most minutes end up
// evicted to segments; one client then POSTs /v1/investigate in a
// fixed Zipf order over (minute, site) keys. There are more keys than
// the 64-entry verdict cache and more evicted minutes than the two-slot
// cold LRU, so every investigation-side cache misses some of the time;
// sites per minute stay within the per-shard viewmap cache (8). An op
// is one investigation.
type investigate struct {
	minutes  int
	queries  int
	preload  [][]preloadBody // by minute
	vpCount  map[int64]int
	keys     []siteKey
	bodies   [][]byte       // request body per key
	first    map[int][]byte // first reply body per key this round, for check
	order    []int          // key index per query
	expected []report       // per key
}

// preloadBody is one set-up upload.
type preloadBody struct {
	trusted bool
	body    []byte
}

// report is the comparable part of an investigation reply.
type report struct {
	Members    int      `json:"members"`
	Edges      int      `json:"edges"`
	InSite     int      `json:"inSite"`
	Legitimate []string `json:"legitimate"`
}

func (r report) String() string {
	return fmt.Sprintf("%d members, %d edges, %d in site, %d legitimate", r.Members, r.Edges, r.InSite, len(r.Legitimate))
}

func (r report) equal(o report) bool {
	if r.Members != o.Members || r.Edges != o.Edges || r.InSite != o.InSite || len(r.Legitimate) != len(o.Legitimate) {
		return false
	}
	a := append([]string(nil), r.Legitimate...)
	b := append([]string(nil), o.Legitimate...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const (
	investigatePerMinute = 300
	investigateSites     = 6
	investigateRetention = 4
	investigateSiteHalf  = 250.0
	investigateZipfS     = 1.4
)

func newInvestigate(cfg benchConfig) (*investigate, error) {
	w := &investigate{minutes: 24, queries: 1000, vpCount: make(map[int64]int)}
	if cfg.tiny {
		w.minutes, w.queries = 8, 60
	}
	area := streamArea()
	rng := rand.New(rand.NewSource(cfg.seed))
	for m := 0; m < w.minutes; m++ {
		ps, err := synthMinute(investigatePerMinute, area, int64(m), cfg.seed*1_000_033+int64(m))
		if err != nil {
			return nil, err
		}
		var sites []geo.Rect
		for s := 0; s < investigateSites; s++ {
			c := geo.Pt(400+rng.Float64()*1200, 400+rng.Float64()*1200)
			site := geo.RectAround(c, investigateSiteHalf)
			core.MarkTrustedNearest(ps, c)
			sites = append(sites, site)
		}
		w.preload = append(w.preload, preloadBodies(ps))
		w.vpCount[int64(m)] = len(ps)
		for _, site := range sites {
			k := siteKey{minute: int64(m), site: site}
			exp, err := expectedReport(ps, k)
			if err != nil {
				return nil, err
			}
			w.keys = append(w.keys, k)
			w.bodies = append(w.bodies, investigateBody(k))
			w.expected = append(w.expected, exp)
		}
	}
	// The access pattern is a fixed property of the workload, the same
	// for every seed (which varies the fleets and sites), so the share
	// of queries each cache absorbs does not move with the seed.
	// Popularity ranks follow a fixed minute order: the hottest minutes
	// alternate between the resident horizon and evicted minutes, each
	// minute's sites ranked together.
	var ranked []int
	for _, m := range minuteOrder(w.minutes) {
		for s := 0; s < investigateSites; s++ {
			ranked = append(ranked, m*investigateSites+s)
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(1)), investigateZipfS, 1, uint64(len(ranked)-1))
	for q := 0; q < w.queries; q++ {
		w.order = append(w.order, ranked[z.Uint64()])
	}
	return w, nil
}

// minuteOrder ranks minutes by popularity: resident-horizon minutes
// interleaved with evicted ones, then the rest ascending.
func minuteOrder(n int) []int {
	hot := []int{n - 1, n / 2, n - 2, n / 4, n - 3, 3 * n / 4, n - 4}
	seen := make(map[int]bool)
	var out []int
	for _, m := range hot {
		if m >= 0 && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for m := 0; m < n; m++ {
		if !seen[m] {
			out = append(out, m)
		}
	}
	return out
}

// preloadBodies splits a minute's profiles into trusted seeds and
// 64-record batches.
func preloadBodies(ps []*vp.Profile) []preloadBody {
	var out []preloadBody
	var anon []*vp.Profile
	for _, p := range ps {
		if p.Trusted {
			out = append(out, preloadBody{trusted: true, body: p.Marshal()})
		} else {
			anon = append(anon, p)
		}
	}
	for off := 0; off < len(anon); off += ingestBatch {
		out = append(out, preloadBody{body: vp.MarshalBatch(anon[off:min(off+ingestBatch, len(anon))])})
	}
	return out
}

// upload sends set-up bodies straight to the system.
func upload(sys *server.System, bodies []preloadBody) error {
	for _, b := range bodies {
		if b.trusted {
			if err := sys.UploadTrustedVP(authToken, b.body); err != nil {
				return err
			}
			continue
		}
		res, err := sys.UploadVPBatch(b.body)
		if err != nil {
			return err
		}
		if res.Rejected+res.Duplicates != 0 {
			return fmt.Errorf("set-up batch %+v, want clean", res)
		}
	}
	return nil
}

// expectedReport is the oracle: core.Build plus VerifySite over the
// minute's profiles.
func expectedReport(ps []*vp.Profile, k siteKey) (report, error) {
	vm, err := core.Build(ps, core.BuildConfig{Site: k.site, Minute: k.minute, RequirePlausible: true})
	if err != nil {
		return report{}, err
	}
	inSite := vm.InSite(k.site)
	v, err := vm.VerifySite(inSite, core.TrustRankConfig{})
	if err != nil {
		return report{}, err
	}
	r := report{Members: vm.Len(), Edges: vm.NumEdges(), InSite: len(inSite)}
	for _, id := range v.LegitimateIDs(vm) {
		r.Legitimate = append(r.Legitimate, fmt.Sprintf("%x", id[:]))
	}
	return r, nil
}

func investigateBody(k siteKey) []byte {
	b, _ := json.Marshal(map[string]any{
		"site": map[string]float64{
			"minX": k.site.Min.X, "minY": k.site.Min.Y, "maxX": k.site.Max.X, "maxY": k.site.Max.Y,
		},
		"minute": k.minute,
	})
	return b
}

func (w *investigate) setup(env *roundEnv) (*server.System, error) {
	sys, err := openDurable(env, investigateRetention)
	if err != nil {
		return nil, err
	}
	for m, bodies := range w.preload {
		if m > 0 {
			if err := maintain(sys, int64(m)); err != nil {
				return nil, err
			}
		}
		if err := upload(sys, bodies); err != nil {
			return nil, err
		}
	}
	if err := maintain(sys, 0); err != nil {
		return nil, err
	}
	return sys, nil
}

func (w *investigate) exec(env *roundEnv, sys *server.System, rec *recorder) error {
	h := server.Handler(sys)
	w.first = make(map[int][]byte)
	var tr *investigationTracer
	if rec.traced {
		tr = newInvestigationTracer(sys, w.vpCount)
	}
	for _, ki := range w.order {
		k := w.keys[ki]
		if tr != nil {
			tr.before(k, rec)
		}
		start := time.Now()
		code, body := call(h, "POST", "/v1/investigate", w.bodies[ki], authority)
		lat := time.Since(start)
		rec.sample("investigate", lat)
		if tr != nil {
			tr.after(rec)
		}
		rec.unit("investigations", 1)
		if code != http.StatusOK {
			rec.fail("investigate minute %d: status %d: %s", k.minute, code, body)
			rec.attempt(1, 1)
			continue
		}
		rec.attempt(1, 0)
		rec.op(1, lat)
		if w.first[ki] == nil {
			w.first[ki] = body
		}
	}
	return nil
}

// investigationTracer attributes traced investigations to layers: it
// moves a segment reload out of the request into its own span, and
// counts site extractions and TrustRank runs from the server's
// residency and verification counters around each call.
type investigationTracer struct {
	sys       *server.System
	vpCount   map[int64]int
	extracted map[int64]map[geo.Rect]bool
	trust     map[string]uint64
}

func newInvestigationTracer(sys *server.System, vpCount map[int64]int) *investigationTracer {
	return &investigationTracer{sys: sys, vpCount: vpCount, extracted: make(map[int64]map[geo.Rect]bool)}
}

func (t *investigationTracer) before(k siteKey, rec *recorder) {
	resident := make(map[int64]bool)
	for _, s := range t.sys.Store().ShardStats() {
		resident[s.Minute] = true
	}
	for m := range t.extracted {
		if !resident[m] {
			delete(t.extracted, m)
		}
	}
	if !resident[k.minute] {
		start := time.Now()
		t.sys.Store().MinuteEpoch(k.minute)
		rec.span("server.reload", time.Since(start))
		n := float64(t.vpCount[k.minute])
		rec.unit("server.reloads", 1)
		rec.unit("vp.decode_reload", n)
		rec.unit("core.link_reload", n)
	}
	if t.extracted[k.minute] == nil {
		t.extracted[k.minute] = make(map[geo.Rect]bool)
	}
	if !t.extracted[k.minute][k.site] {
		t.extracted[k.minute][k.site] = true
		rec.unit("core.extract", 1)
	} else {
		rec.unit("core.refresh", 1)
	}
	t.trust = trustCounts(t.sys)
}

func (t *investigationTracer) after(rec *recorder) {
	now := trustCounts(t.sys)
	rec.unit("core.tr_cold", float64(now["cold"]-t.trust["cold"]))
	rec.unit("core.tr_warm", float64(now["warm"]-t.trust["warm"]))
}

func trustCounts(sys *server.System) map[string]uint64 {
	out := make(map[string]uint64)
	for mode, s := range sys.TrustRankStats() {
		out[mode] = s.Verifications
	}
	return out
}

// check compares each distinct key's first report of the round with
// core.Build plus VerifySite over the minute's profiles.
func (w *investigate) check(env *roundEnv, sys *server.System, rec *recorder) error {
	for ki, body := range w.first {
		var got report
		if err := json.Unmarshal(body, &got); err != nil {
			rec.fail("investigate reply: %v", err)
		} else if k := w.keys[ki]; !got.equal(w.expected[ki]) {
			rec.fail("minute %d site %v: got %v, core.Build says %v", k.minute, k.site, got, w.expected[ki])
		}
	}
	return nil
}

func (w *investigate) residentVPs(sys *server.System) int { return residentVPs(sys) }

func (w *investigate) layerPass(lc *layerCosts) error {
	ordered, err := decodePreload(w.preload, lc)
	if err != nil {
		return err
	}
	builders := corePass(ordered, ingestBatch, lc)
	return coldPass(builders, w.keys, lc)
}

// decodePreload runs the vp pass over the set-up batches and returns
// every minute's profiles in upload order (trusted seeds decoded
// directly and flagged, as the trusted endpoint does).
func decodePreload(preload [][]preloadBody, lc *layerCosts) ([]*vp.Profile, error) {
	var batches [][]byte
	for _, bodies := range preload {
		for _, b := range bodies {
			if !b.trusted {
				batches = append(batches, b.body)
			}
		}
	}
	decoded, err := vpPass(batches, lc)
	if err != nil {
		return nil, err
	}
	var ordered []*vp.Profile
	next := 0
	for _, bodies := range preload {
		for _, b := range bodies {
			if b.trusted {
				p, err := vp.Unmarshal(b.body)
				if err != nil {
					return nil, err
				}
				p.Trusted = true
				ordered = append(ordered, p)
				continue
			}
			n, err := vp.SplitBatch(b.body, 1<<14)
			if err != nil {
				return nil, err
			}
			ordered = append(ordered, decoded[next:next+len(n)]...)
			next += len(n)
		}
	}
	return ordered, nil
}
