package server

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"viewmap/internal/anon"
	"viewmap/internal/core"
	"viewmap/internal/evidence"
	"viewmap/internal/geo"
	"viewmap/internal/obs"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
)

// maxUploadBytes bounds request bodies: a VP is ~5 KB, a full 1-minute
// video 50 MB; allow headroom for base64 expansion.
const maxUploadBytes = 100 << 20

// authorityHeader carries the authority token on privileged requests.
const authorityHeader = "X-Viewmap-Authority"

// sessionHeader carries the single-use anonymous session identifier.
// Evidence deliveries and payouts refuse a missing or replayed id.
const sessionHeader = "X-Session"

// Watch-endpoint bounds. A watch holds one of the investigate-class
// admission slots for its whole duration (see overload.go), so the
// stream lifetime is capped: timeoutMs defaults to watchDefaultTimeout
// and is clamped to watchMaxTimeout. Minutes with no resident shard
// cannot be waited on through a commit channel; those are polled at
// watchPollInterval until they materialize.
const (
	watchDefaultTimeout = 30 * time.Second
	watchMaxTimeout     = 60 * time.Second
	watchPollInterval   = 200 * time.Millisecond
)

// route is one endpoint of the HTTP surface.
type route struct {
	method, path string
	// class is the admission gate the endpoint is shed through
	// (overload.go).
	class endpointClass
}

// routes is the HTTP surface, the one list every per-endpoint concern
// reads: Handler serves exactly these patterns, the admission layer
// classifies requests by them (any other path is ungated and 404s), and
// each path gets its own latency histogram (telemetry.go). The comment
// on each entry is its wire shape; docs/http-api.md has the details.
var routes = []route{
	{"POST", "/v1/vp", classIngest},                      // binary VP upload (anonymous)
	{"POST", "/v1/vp/batch", classIngest},                // batched binary VP upload (anonymous)
	{"POST", "/v1/vp/trusted", classIngest},              // binary VP upload (authority)
	{"POST", "/v1/investigate", classInvestigate},        // {"site":{...},"minute":N} (authority)
	{"POST", "/v1/investigate/period", classInvestigate}, // {"site","firstMinute","lastMinute"} (authority)
	{"POST", "/v1/investigate/report", classInvestigate}, // {"site","minute"} -> per-VP verdicts (authority)
	// A watch stream holds its investigate slot for its whole (bounded)
	// lifetime, so long watches trade against interactive investigation
	// capacity; see the watch timeout clamp below.
	{"GET", "/v1/investigate/watch", classInvestigate},   // streamed NDJSON reports on epoch advance (authority)
	{"POST", "/v1/evidence/solicit", classInvestigate},   // {"site","minute","units"} (authority)
	{"GET", "/v1/evidence/solicitations", classEvidence}, // {"offers":[{"id","units"},...]}
	{"POST", "/v1/evidence/deliver", classEvidence},      // {"id","secret","chunks"} (X-Session, single use)
	{"POST", "/v1/evidence/payout", classEvidence},       // {"id","secret","blinded"} (X-Session, single use)
	{"POST", "/v1/evidence/redeem", classEvidence},       // {"m":"b64","sig":"dec"}
	{"GET", "/v1/evidence/video", classInvestigate},      // ?id=hex -> blurred release (authority)
	{"GET", "/v1/bank", classNone},                       // {"n":"dec","e":N} blind-signature public key
	{"GET", "/v1/stats", classNone},                      // {"vps":N,...} (docs/http-api.md)
	{"GET", "/v1/metrics", classNone},                    // Prometheus text exposition (docs/observability.md)
}

// routeClass maps each routed path to its admission class.
var routeClass = func() map[string]endpointClass {
	m := make(map[string]endpointClass, len(routes))
	for _, rt := range routes {
		m[rt.path] = rt.class
	}
	return m
}()

// Handler returns the system's HTTP API: the endpoints of routes.
//
// Every endpoint of a gated class sits behind a per-class admission
// gate (overload.go): when a class's slots and wait queue are both
// full the request is shed with 429 Too Many Requests and a
// Retry-After header instead of queueing unboundedly. The whole
// surface is wrapped in withTelemetry (telemetry.go), which times every
// request and traces the slow ones.
func Handler(sys *System) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		// A handler outside the route table would be ungated and
		// untimed; refuse it at start-up rather than serve it.
		if !slices.ContainsFunc(routes, func(rt route) bool { return rt.method+" "+rt.path == pattern }) {
			panic("server: " + pattern + " is not in the route table")
		}
		mux.HandleFunc(pattern, h)
	}
	handle("POST /v1/vp", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := sys.uploadVP(body, false, obs.TraceFrom(r.Context())); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	handle("POST /v1/vp/batch", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		res, err := sys.uploadBatchBody(body, obs.TraceFrom(r.Context()))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, batchResponse{
			Stored: res.Stored, Duplicates: res.Duplicates, Rejected: res.Rejected,
		})
	})
	handle("POST /v1/vp/trusted", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		err = sys.checkAuthority(r.Header.Get(authorityHeader))
		if err == nil {
			err = sys.uploadVP(body, true, obs.TraceFrom(r.Context()))
		}
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	handle("POST /v1/investigate", func(w http.ResponseWriter, r *http.Request) {
		var req investigateRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		report, err := sys.Investigate(r.Header.Get(authorityHeader),
			geo.NewRect(geo.Pt(req.Site.MinX, req.Site.MinY), geo.Pt(req.Site.MaxX, req.Site.MaxY)),
			req.Minute)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, investigateResponse{
			Members: report.Members, Edges: report.Edges, InSite: report.InSite,
			Legitimate: encodeIDs(report.Legitimate),
		})
	})
	handle("POST /v1/investigate/period", func(w http.ResponseWriter, r *http.Request) {
		var req investigatePeriodRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		reports, err := sys.InvestigatePeriod(r.Header.Get(authorityHeader),
			geo.NewRect(geo.Pt(req.Site.MinX, req.Site.MinY), geo.Pt(req.Site.MaxX, req.Site.MaxY)),
			req.FirstMinute, req.LastMinute)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		out := investigatePeriodResponse{}
		for _, rep := range reports {
			if rep == nil {
				out.Minutes = append(out.Minutes, nil)
				continue
			}
			out.Minutes = append(out.Minutes, &investigateResponse{
				Members: rep.Members, Edges: rep.Edges, InSite: rep.InSite,
				Legitimate: encodeIDs(rep.Legitimate),
			})
		}
		writeJSON(w, out)
	})
	handle("POST /v1/investigate/report", func(w http.ResponseWriter, r *http.Request) {
		var req investigateRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		report, err := sys.InvestigateReport(r.Header.Get(authorityHeader),
			geo.NewRect(geo.Pt(req.Site.MinX, req.Site.MinY), geo.Pt(req.Site.MaxX, req.Site.MaxY)),
			req.Minute)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		out := reportResponse{
			Members: report.Members, Edges: report.Edges, InSite: report.InSite,
			Verdicts: make([]verdictJSON, len(report.Verdicts)),
		}
		for i, v := range report.Verdicts {
			out.Verdicts[i] = verdictJSON{
				ID: hex.EncodeToString(v.ID[:]), Trusted: v.Trusted,
				InSite: v.InSite, Legitimate: v.Legitimate, Hops: v.Hops,
			}
		}
		writeJSON(w, out)
	})
	// GET /v1/investigate/watch streams fresh investigation reports as
	// NDJSON (one JSON object per line, flushed immediately): the current
	// state first, then one line per content-epoch advance — ingest that
	// lands outside the site's coverage area advances the builder but not
	// the content epoch and is never re-reported. Query parameters:
	// minX/minY/maxX/maxY (site), minute, and optionally fromEpoch
	// (suppress reports at or below this content epoch; resume token),
	// maxReports (close the stream after N reports), and timeoutMs
	// (stream lifetime, clamped to watchMaxTimeout). Errors before the
	// first report are plain HTTP errors; after it, a final
	// {"error":...} line. The stream ends cleanly (200, possibly zero
	// lines) on timeout or client disconnect.
	handle("GET /v1/investigate/watch", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		site, err := rectFromQuery(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		minute, err := strconv.ParseInt(q.Get("minute"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad minute %q", q.Get("minute")))
			return
		}
		var fromEpoch uint64
		if s := q.Get("fromEpoch"); s != "" {
			if fromEpoch, err = strconv.ParseUint(s, 10, 64); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad fromEpoch %q", s))
				return
			}
		}
		var maxReports int
		if s := q.Get("maxReports"); s != "" {
			if maxReports, err = strconv.Atoi(s); err != nil || maxReports < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad maxReports %q", s))
				return
			}
		}
		timeout := watchDefaultTimeout
		if s := q.Get("timeoutMs"); s != "" {
			ms, err := strconv.Atoi(s)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad timeoutMs %q", s))
				return
			}
			timeout = time.Duration(ms) * time.Millisecond
		}
		if timeout > watchMaxTimeout {
			timeout = watchMaxTimeout
		}
		token := r.Header.Get(authorityHeader)

		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		ctx := r.Context()
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		started := false
		last := fromEpoch
		sent := 0
		for {
			// Grab the change channel BEFORE snapshotting: a commit that
			// lands between the snapshot and the wait closes this channel,
			// so the wakeup cannot be lost.
			_, ch := sys.Store().MinuteChange(minute)
			report, cepoch, err := sys.InvestigateSnapshot(token, site, minute)
			switch {
			case err == nil:
				if cepoch > last {
					if !started {
						w.Header().Set("Content-Type", "application/x-ndjson")
						started = true
					}
					if err := enc.Encode(watchReportJSON{
						Minute: report.Minute, Epoch: cepoch,
						Members: report.Members, Edges: report.Edges, InSite: report.InSite,
						Legitimate: encodeIDs(report.Legitimate),
					}); err != nil {
						return
					}
					if flusher != nil {
						flusher.Flush()
					}
					last = cepoch
					sent++
					if maxReports > 0 && sent >= maxReports {
						return
					}
				}
			case errors.Is(err, ErrNoMinute), errors.Is(err, core.ErrNoTrusted):
				// Benign absences: the minute (or its first trusted VP) may
				// yet arrive within the watch window — keep waiting.
			default:
				if !started {
					httpError(w, statusFor(err), err)
					return
				}
				_ = enc.Encode(map[string]string{"error": err.Error()})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			var pollC <-chan time.Time
			if ch == nil {
				// No resident shard to wait on; poll until it appears.
				pollC = time.After(watchPollInterval)
			}
			select {
			case <-ctx.Done():
				return
			case <-deadline.C:
				if !started {
					w.Header().Set("Content-Type", "application/x-ndjson")
				}
				return
			case <-ch:
			case <-pollC:
			}
		}
	})
	handle("GET /v1/bank", func(w http.ResponseWriter, r *http.Request) {
		pub := sys.Bank().PublicKey()
		writeJSON(w, bankResponse{N: pub.N.String(), E: pub.E})
	})

	// Evidence subsystem: the end-to-end lifecycle of Sections
	// 5.1–5.3 (solicit → anonymous deliver → cascade verify → payout
	// → blurred release).
	handle("POST /v1/evidence/solicit", func(w http.ResponseWriter, r *http.Request) {
		var req solicitRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		rep, err := sys.OpenSolicitation(r.Header.Get(authorityHeader),
			geo.NewRect(geo.Pt(req.Site.MinX, req.Site.MinY), geo.Pt(req.Site.MaxX, req.Site.MaxY)),
			req.Minute, req.Units)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, solicitResponse{
			Members: rep.Members, InSite: rep.InSite,
			Legitimate: encodeIDs(rep.Legitimate),
			Listed:     rep.Listed, NewlyListed: rep.NewlyListed, Units: rep.Units,
		})
	})
	handle("GET /v1/evidence/solicitations", func(w http.ResponseWriter, r *http.Request) {
		board := sys.Evidence().Board()
		out := offersResponse{Offers: make([]offerJSON, len(board))}
		for i, o := range board {
			out.Offers[i] = offerJSON{ID: hex.EncodeToString(o.ID[:]), Units: o.Units}
		}
		writeJSON(w, out)
	})
	handle("POST /v1/evidence/deliver", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeDeliver(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		id, q, err := decodeOwnership(req.ID, req.Secret)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		chunks := make([][]byte, len(req.Chunks))
		for i, c := range req.Chunks {
			chunks[i] = c
		}
		units, err := sys.Evidence().Deliver(r.Header.Get(sessionHeader), id, q, chunks)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, deliverResponse{Units: units})
	})
	handle("POST /v1/evidence/payout", func(w http.ResponseWriter, r *http.Request) {
		var req blindRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		id, q, err := decodeOwnership(req.ID, req.Secret)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		blinded := make([]*big.Int, len(req.Blinded))
		for i, s := range req.Blinded {
			v, ok := new(big.Int).SetString(s, 10)
			if !ok {
				httpError(w, http.StatusBadRequest, fmt.Errorf("blinded %d not a decimal integer", i))
				return
			}
			blinded[i] = v
		}
		sigs, err := sys.Evidence().Payout(r.Header.Get(sessionHeader), id, q, blinded)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		out := make([]string, len(sigs))
		for i, s := range sigs {
			out[i] = s.String()
		}
		writeJSON(w, blindResponse{Signatures: out})
	})
	handle("POST /v1/evidence/redeem", func(w http.ResponseWriter, r *http.Request) {
		var req redeemRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		m, err := base64.StdEncoding.DecodeString(req.M)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		sig, ok := new(big.Int).SetString(req.Sig, 10)
		if !ok {
			httpError(w, http.StatusBadRequest, errors.New("sig not a decimal integer"))
			return
		}
		if err := sys.Evidence().Redeem(&reward.Cash{M: m, Sig: sig}); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	handle("GET /v1/evidence/video", func(w http.ResponseWriter, r *http.Request) {
		id, err := decodeID(r.URL.Query().Get("id"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		chunks, frames, regions, err := sys.ReleaseEvidence(r.Header.Get(authorityHeader), id)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, videoResponse{Chunks: chunks, RedactedFrames: frames, RedactedRegions: regions})
	})

	handle("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sys.metrics.WritePrometheus(w)
	})
	handle("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		shards := sys.Store().ShardStats()
		writeJSON(w, statsResponse{
			VPs:        sys.Store().Len(),
			Trusted:    sys.Store().TrustedCount(),
			Minutes:    sys.Store().MinuteCount(),
			Ingest:     sys.Store().IngestStatsFrom(shards),
			Shards:     shards,
			Retention:  sys.Store().RetentionStatsSnapshot(),
			Durability: sys.DurabilityStatsSnapshot(),
			Evidence:   sys.Evidence().StatsSnapshot(),
			Overload:   sys.OverloadStatsSnapshot(),
			Latency:    latencyJSON(sys.metrics),
			Pipeline:   pipelineJSON(sys.metrics),
			TrustRank:  sys.TrustRankStats(),
		})
	})
	return withTelemetry(sys, withAdmission(sys.overload, mux))
}

// Wire types.

type rectJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type investigateRequest struct {
	Site   rectJSON `json:"site"`
	Minute int64    `json:"minute"`
}

type investigateResponse struct {
	Members    int      `json:"members"`
	Edges      int      `json:"edges"`
	InSite     int      `json:"inSite"`
	Legitimate []string `json:"legitimate"`
}

type investigatePeriodRequest struct {
	Site        rectJSON `json:"site"`
	FirstMinute int64    `json:"firstMinute"`
	LastMinute  int64    `json:"lastMinute"`
}

type investigatePeriodResponse struct {
	// Minutes holds one report per minute of the period; null entries
	// mark minutes for which no viewmap could be built.
	Minutes []*investigateResponse `json:"minutes"`
}

// watchReportJSON is one NDJSON line of GET /v1/investigate/watch.
// Epoch is the report's content epoch — the resume token for a
// follow-up watch's fromEpoch.
type watchReportJSON struct {
	Minute     int64    `json:"minute"`
	Epoch      uint64   `json:"epoch"`
	Members    int      `json:"members"`
	Edges      int      `json:"edges"`
	InSite     int      `json:"inSite"`
	Legitimate []string `json:"legitimate"`
}

type batchResponse struct {
	Stored     int `json:"stored"`
	Duplicates int `json:"duplicates"`
	Rejected   int `json:"rejected"`
}

type blindRequest struct {
	ID      string   `json:"id"`
	Secret  string   `json:"secret"`
	Blinded []string `json:"blinded"`
}

type blindResponse struct {
	Signatures []string `json:"signatures"`
}

type redeemRequest struct {
	M   string `json:"m"`
	Sig string `json:"sig"`
}

type bankResponse struct {
	N string `json:"n"`
	E int    `json:"e"`
}

// statsResponse is GET /v1/stats: the server's own counter structs,
// marshalled as they are, plus the latency and pipeline rows built
// from the registry's histograms (telemetry.go).
type statsResponse struct {
	VPs        int                           `json:"vps"`
	Trusted    int                           `json:"trusted"`
	Minutes    int                           `json:"minutes"`
	Ingest     IngestStats                   `json:"ingest"`
	Shards     []ShardStat                   `json:"shards"`
	Retention  RetentionStats                `json:"retention"`
	Durability DurabilityStats               `json:"durability"`
	Evidence   evidence.Stats                `json:"evidence"`
	Overload   OverloadStats                 `json:"overload"`
	Latency    []endpointLatencyJSON         `json:"latency"`
	Pipeline   pipelineStatsJSON             `json:"pipeline"`
	TrustRank  map[string]TrustRankModeStats `json:"trustrank"`
}

type endpointLatencyJSON struct {
	Endpoint string  `json:"endpoint"`
	Requests uint64  `json:"requests"`
	P50MS    float64 `json:"p50Ms"`
	P99MS    float64 `json:"p99Ms"`
}

type pipelineStageJSON struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	P50US   float64 `json:"p50Us"`
	P99US   float64 `json:"p99Us"`
	TotalMS float64 `json:"totalMs"`
}

type walBatchJSON struct {
	Commits    uint64 `json:"commits"`
	P50Records uint64 `json:"p50Records"`
	P99Records uint64 `json:"p99Records"`
}

type pipelineStatsJSON struct {
	Stages         []pipelineStageJSON `json:"stages"`
	WALCommitBatch walBatchJSON        `json:"walCommitBatch"`
}

type verdictJSON struct {
	ID         string `json:"id"`
	Trusted    bool   `json:"trusted"`
	InSite     bool   `json:"inSite"`
	Legitimate bool   `json:"legitimate"`
	Hops       int    `json:"hops"`
}

type reportResponse struct {
	Members  int           `json:"members"`
	Edges    int           `json:"edges"`
	InSite   int           `json:"inSite"`
	Verdicts []verdictJSON `json:"verdicts"`
}

type solicitRequest struct {
	Site   rectJSON `json:"site"`
	Minute int64    `json:"minute"`
	Units  int      `json:"units"`
}

type solicitResponse struct {
	Members     int      `json:"members"`
	InSite      int      `json:"inSite"`
	Legitimate  []string `json:"legitimate"`
	Listed      int      `json:"listed"`
	NewlyListed int      `json:"newlyListed"`
	Units       int      `json:"units"`
}

type offerJSON struct {
	ID    string `json:"id"`
	Units int    `json:"units"`
}

type offersResponse struct {
	Offers []offerJSON `json:"offers"`
}

type deliverRequest struct {
	ID     string      `json:"id"`
	Secret string      `json:"secret"`
	Chunks []chunkJSON `json:"chunks"`
}

// chunkJSON is one video chunk on the wire: a standard-base64 JSON
// string. Unlike a plain []byte field, it refuses JSON arrays, so
// [[1,2,3]] stays a 400 as it is for any other non-string chunk.
type chunkJSON []byte

// UnmarshalJSON decodes a base64 string; null is an empty chunk.
func (c *chunkJSON) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*c = chunkJSON{}
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return errors.New("server: chunk is not a base64 string")
	}
	out, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return fmt.Errorf("server: chunk: %w", err)
	}
	*c = out
	return nil
}

type deliverResponse struct {
	Units int `json:"units"`
}

type videoResponse struct {
	// Chunks encode as standard-base64 strings; RedactChunks never
	// returns a nil chunk, which would encode as null.
	Chunks          [][]byte `json:"chunks"`
	RedactedFrames  int      `json:"redactedFrames"`
	RedactedRegions int      `json:"redactedRegions"`
}

// Helpers.

// rectFromQuery decodes a site rectangle from minX/minY/maxX/maxY
// query parameters. ParseFloat accepts NaN and infinities, which no
// site may hold, so they are refused here too.
func rectFromQuery(q url.Values) (geo.Rect, error) {
	var vals [4]float64
	for i, k := range [4]string{"minX", "minY", "maxX", "maxY"} {
		v, err := strconv.ParseFloat(q.Get(k), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return geo.Rect{}, fmt.Errorf("server: bad %s %q", k, q.Get(k))
		}
		vals[i] = v
	}
	return geo.NewRect(geo.Pt(vals[0], vals[1]), geo.Pt(vals[2], vals[3])), nil
}

func decodeJSON(r *http.Request, v interface{}) error {
	return decodeJSONFrom(io.LimitReader(r.Body, maxUploadBytes), v)
}

// decodeJSONFrom decodes the first JSON value in rd into v, refusing
// unknown fields and ignoring anything after the value.
func decodeJSONFrom(rd io.Reader, v interface{}) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection is the casualty.
		return
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, evidence.ErrNotSolicited), errors.Is(err, evidence.ErrBadOwnership):
		return http.StatusForbidden
	case errors.Is(err, anon.ErrSessionReused):
		return http.StatusConflict
	case errors.Is(err, evidence.ErrAlreadyDelivered):
		return http.StatusConflict
	case errors.Is(err, evidence.ErrCascade):
		return http.StatusUnprocessableEntity
	case errors.Is(err, evidence.ErrNotDelivered):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, ErrStaleMinute):
		return http.StatusUnprocessableEntity
	case errors.Is(err, reward.ErrDoubleSpend):
		return http.StatusConflict
	case errors.Is(err, reward.ErrBadSignature):
		return http.StatusBadRequest
	case errors.Is(err, reward.ErrSignatureFault):
		return http.StatusInternalServerError
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, ErrDurability):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func encodeIDs(ids []vd.VPID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = hex.EncodeToString(id[:])
	}
	return out
}

func decodeID(s string) (vd.VPID, error) {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(vd.VPID{}) {
		return vd.VPID{}, fmt.Errorf("server: bad VP identifier %q", s)
	}
	var id vd.VPID
	copy(id[:], b)
	return id, nil
}

func decodeOwnership(idHex, secretHex string) (vd.VPID, vd.Secret, error) {
	id, err := decodeID(idHex)
	if err != nil {
		return vd.VPID{}, vd.Secret{}, err
	}
	qb, err := hex.DecodeString(secretHex)
	if err != nil || len(qb) != len(vd.Secret{}) {
		return vd.VPID{}, vd.Secret{}, errors.New("server: bad secret encoding")
	}
	var q vd.Secret
	copy(q[:], qb)
	return id, q, nil
}
