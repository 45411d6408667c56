package client

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"viewmap/internal/anon"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// API is the vehicle's client to the system service. Every request
// traverses a simulated onion circuit and carries a single-use session
// identifier, reproducing the paper's "constantly change sessions"
// uploading discipline over Tor.
type API struct {
	base     string
	http     *http.Client
	dir      *anon.Directory
	hops     int
	sessions *anon.Sessions

	// Backpressure handling: a 429 response is retried up to retries
	// times, sleeping the server's Retry-After hint (or an exponential
	// backoff when the hint is absent) plus up to 50% jitter between
	// attempts. Each retry rides a fresh circuit and session id.
	retries int
	backoff time.Duration
	sleep   func(time.Duration)
	// seen429 counts 429 responses observed (including retried ones);
	// tests cross-check it against the server's shed counters.
	seen429 atomic.Uint64
	// jitterMu guards jitter, the client's private backoff-jitter
	// source (math/rand's package globals are banned repo-wide so
	// simulation randomness stays seedable; the jitter source is
	// seeded from crypto/rand at construction).
	jitterMu sync.Mutex
	jitter   *mrand.Rand
}

// NewAPI creates a client for the service at base (e.g.
// "http://127.0.0.1:8440"). httpClient may be nil for the default.
func NewAPI(base string, httpClient *http.Client) (*API, error) {
	if base == "" {
		return nil, errors.New("client: empty base URL")
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	dir, err := anon.NewDirectory(5)
	if err != nil {
		return nil, err
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("client: seeding backoff jitter: %w", err)
	}
	return &API{
		base:     base,
		http:     httpClient,
		dir:      dir,
		hops:     3,
		sessions: anon.NewSessions(),
		retries:  defaultRetries,
		backoff:  defaultBackoff,
		sleep:    time.Sleep,
		jitter:   mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(seed[:])))),
	}, nil
}

// Default 429 retry policy: four retries, 50 ms exponential backoff
// base when the server sends no Retry-After hint.
const (
	defaultRetries = 4
	defaultBackoff = 50 * time.Millisecond
)

// SetRetryPolicy tunes the client's handling of 429 responses:
// retries bounds the re-attempts per request (0 disables retrying),
// backoff is the exponential base used when the server sends no
// Retry-After hint, and sleep replaces time.Sleep between attempts
// (nil keeps time.Sleep; tests inject a recorder, simulations a
// time-compressed sleeper). Not safe to call concurrently with
// in-flight requests.
func (a *API) SetRetryPolicy(retries int, backoff time.Duration, sleep func(time.Duration)) {
	if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	a.retries, a.backoff, a.sleep = retries, backoff, sleep
}

// Seen429 reports how many 429 responses this client has observed,
// counting every shed attempt of every retried request. Against a
// server whose only 429 source is the admission layer, the sum across
// all clients equals the server's shed counters exactly.
func (a *API) Seen429() uint64 { return a.seen429.Load() }

// anonBody routes the payload through a fresh onion circuit and
// returns the exit-side bytes. The simulation performs the traversal
// in-process; what matters to the system is that the payload arrives
// with no linkable origin.
func (a *API) anonBody(payload []byte) ([]byte, error) {
	circuit, err := a.dir.PickCircuit(a.hops)
	if err != nil {
		return nil, err
	}
	wrapped, err := circuit.Wrap(payload)
	if err != nil {
		return nil, err
	}
	return circuit.Traverse(wrapped)
}

// do issues one anonymous request with a fresh session id, retrying
// shed (429) responses per the client's retry policy: the wait between
// attempts honors the server's Retry-After hint when present, falls
// back to exponential backoff otherwise, and adds up to 50% jitter so
// a fleet of shed clients does not return in lockstep. Every retry
// builds a fresh circuit and session id — a retried request is
// indistinguishable from a new one, as the anonymity discipline
// requires.
func (a *API) do(method, path, contentType string, payload []byte, authority string) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := a.doOnce(method, path, contentType, payload, authority)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp, nil
		}
		a.seen429.Add(1)
		if attempt >= a.retries {
			return resp, nil
		}
		wait := a.retryWait(resp.Header.Get("Retry-After"), attempt)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		a.sleep(wait)
	}
}

// retryWait picks the pause before a retry: the server's Retry-After
// hint when present and positive — either delay-seconds or an HTTP-date,
// the two forms RFC 9110 §10.2.3 allows — exponential backoff from the
// configured base otherwise, plus up to 50% jitter. An unparseable or
// non-positive hint falls back to the exponential schedule.
func (a *API) retryWait(retryAfter string, attempt int) time.Duration {
	wait := a.backoff << min(attempt, 10)
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(retryAfter); err == nil {
		if d := time.Until(t); d > 0 {
			wait = d
		}
	}
	a.jitterMu.Lock()
	j := a.jitter.Int63n(int64(wait)/2 + 1)
	a.jitterMu.Unlock()
	return wait + time.Duration(j)
}

// doOnce issues one anonymous request attempt.
func (a *API) doOnce(method, path, contentType string, payload []byte, authority string) (*http.Response, error) {
	body, err := a.anonBody(payload)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	sid, err := a.sessions.New()
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Session", sid)
	if authority != "" {
		req.Header.Set("X-Viewmap-Authority", authority)
	}
	return a.http.Do(req)
}

// apiError extracts the service's error body.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("client: server says %q (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("client: HTTP %d", resp.StatusCode)
}

// UploadVP submits one VP anonymously.
func (a *API) UploadVP(p *vp.Profile) error {
	resp, err := a.do("POST", "/v1/vp", "application/octet-stream", p.Marshal(), "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}

// BatchUploadResult reports the per-profile outcome of one batched
// upload, as counted by the server.
type BatchUploadResult struct {
	// Stored counts profiles the server accepted.
	Stored int `json:"stored"`
	// Duplicates counts profiles whose identifier was already stored.
	Duplicates int `json:"duplicates"`
	// Rejected counts profiles the server failed to parse or validate.
	Rejected int `json:"rejected"`
}

// UploadVPBatch submits several VPs in one anonymous request over a
// single circuit (POST /v1/vp/batch). Per-profile failures do not sink
// the batch; the returned counts say how each profile fared. Vehicles
// that accumulate a minute's actual and guard VPs upload them together
// this way instead of paying one circuit per profile.
func (a *API) UploadVPBatch(profiles []*vp.Profile) (BatchUploadResult, error) {
	var res BatchUploadResult
	if len(profiles) == 0 {
		return res, errors.New("client: empty batch")
	}
	resp, err := a.do("POST", "/v1/vp/batch", "application/octet-stream", vp.MarshalBatch(profiles), "")
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, apiError(resp)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, err
	}
	return res, nil
}

// UploadTrustedVP submits an authority VP with the authority token.
func (a *API) UploadTrustedVP(token string, p *vp.Profile) error {
	resp, err := a.do("POST", "/v1/vp/trusted", "application/octet-stream", p.Marshal(), token)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}

// Investigate asks the system to build and verify a viewmap (authority
// only) and returns the number of VPs TrustRank marked legitimate.
func (a *API) Investigate(token string, minX, minY, maxX, maxY float64, minute int64) (int, error) {
	reqBody, err := json.Marshal(map[string]interface{}{
		"site":   map[string]float64{"minX": minX, "minY": minY, "maxX": maxX, "maxY": maxY},
		"minute": minute,
	})
	if err != nil {
		return 0, err
	}
	resp, err := a.do("POST", "/v1/investigate", "application/json", reqBody, token)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Legitimate []string `json:"legitimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return len(out.Legitimate), nil
}

// VPVerdict is one viewmap member's verdict from the wire report.
type VPVerdict struct {
	// ID is the member's VP identifier.
	ID vd.VPID
	// Trusted marks authority VPs.
	Trusted bool
	// InSite reports whether the member's trajectory enters the site.
	InSite bool
	// Legitimate reports whether Algorithm 1 marked it LEGITIMATE.
	Legitimate bool
	// Hops is the viewlink distance to the nearest trusted VP (-1
	// when unreachable).
	Hops int
}

// InvestigationOutcome is the parsed POST /v1/investigate/report
// response: the viewmap's shape plus every member's verdict, in
// ascending identifier order.
type InvestigationOutcome struct {
	// Members and Edges describe the verified viewmap.
	Members, Edges int
	// InSite counts members whose trajectories enter the site.
	InSite int
	// Verdicts holds one entry per viewmap member.
	Verdicts []VPVerdict
}

// InvestigateReport verifies (site, minute) and returns the per-VP
// verdicts — the scoring surface the online attack campaigns are
// graded through. Authority only.
func (a *API) InvestigateReport(token string, minX, minY, maxX, maxY float64, minute int64) (*InvestigationOutcome, error) {
	reqBody, err := json.Marshal(map[string]interface{}{
		"site":   map[string]float64{"minX": minX, "minY": minY, "maxX": maxX, "maxY": maxY},
		"minute": minute,
	})
	if err != nil {
		return nil, err
	}
	resp, err := a.do("POST", "/v1/investigate/report", "application/json", reqBody, token)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Members  int `json:"members"`
		Edges    int `json:"edges"`
		InSite   int `json:"inSite"`
		Verdicts []struct {
			ID         string `json:"id"`
			Trusted    bool   `json:"trusted"`
			InSite     bool   `json:"inSite"`
			Legitimate bool   `json:"legitimate"`
			Hops       int    `json:"hops"`
		} `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	res := &InvestigationOutcome{
		Members: out.Members, Edges: out.Edges, InSite: out.InSite,
		Verdicts: make([]VPVerdict, len(out.Verdicts)),
	}
	for i, v := range out.Verdicts {
		b, err := hex.DecodeString(v.ID)
		if err != nil || len(b) != len(vd.VPID{}) {
			return nil, fmt.Errorf("client: bad id %q in report", v.ID)
		}
		res.Verdicts[i] = VPVerdict{
			Trusted: v.Trusted, InSite: v.InSite,
			Legitimate: v.Legitimate, Hops: v.Hops,
		}
		copy(res.Verdicts[i].ID[:], b)
	}
	return res, nil
}

// WatchReport is one streamed report from GET /v1/investigate/watch.
type WatchReport struct {
	// Minute is the watched minute.
	Minute int64
	// Epoch is the report's content epoch; pass it as the next watch's
	// fromEpoch to resume without re-receiving this state.
	Epoch uint64
	// Members and Edges describe the verified viewmap.
	Members, Edges int
	// InSite counts members whose trajectories enter the site.
	InSite int
	// Legitimate lists the members marked LEGITIMATE, in ascending
	// identifier order.
	Legitimate []vd.VPID
}

// WatchInvestigation streams fresh investigation reports for (site,
// minute) as the server's graph advances, calling fn once per report:
// the current state first (unless fromEpoch suppresses it), then one
// call per content change. fn returning a non-nil error stops the
// watch with that error; otherwise the watch returns nil when the
// server ends the stream (timeout elapsed or maxReports delivered,
// both zero-able to take the server's defaults). Authority only.
func (a *API) WatchInvestigation(token string, minX, minY, maxX, maxY float64, minute int64,
	fromEpoch uint64, maxReports int, timeout time.Duration, fn func(WatchReport) error) error {
	q := url.Values{}
	q.Set("minX", strconv.FormatFloat(minX, 'g', -1, 64))
	q.Set("minY", strconv.FormatFloat(minY, 'g', -1, 64))
	q.Set("maxX", strconv.FormatFloat(maxX, 'g', -1, 64))
	q.Set("maxY", strconv.FormatFloat(maxY, 'g', -1, 64))
	q.Set("minute", strconv.FormatInt(minute, 10))
	if fromEpoch > 0 {
		q.Set("fromEpoch", strconv.FormatUint(fromEpoch, 10))
	}
	if maxReports > 0 {
		q.Set("maxReports", strconv.Itoa(maxReports))
	}
	if timeout > 0 {
		q.Set("timeoutMs", strconv.FormatInt(int64(timeout/time.Millisecond), 10))
	}
	resp, err := a.do("GET", "/v1/investigate/watch?"+q.Encode(), "", nil, token)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var wire struct {
			Error      string   `json:"error"`
			Minute     int64    `json:"minute"`
			Epoch      uint64   `json:"epoch"`
			Members    int      `json:"members"`
			Edges      int      `json:"edges"`
			InSite     int      `json:"inSite"`
			Legitimate []string `json:"legitimate"`
		}
		if err := json.Unmarshal(line, &wire); err != nil {
			return fmt.Errorf("client: bad watch line: %w", err)
		}
		if wire.Error != "" {
			return fmt.Errorf("client: server says %q mid-stream", wire.Error)
		}
		rep := WatchReport{
			Minute: wire.Minute, Epoch: wire.Epoch,
			Members: wire.Members, Edges: wire.Edges, InSite: wire.InSite,
			Legitimate: make([]vd.VPID, len(wire.Legitimate)),
		}
		for i, s := range wire.Legitimate {
			b, err := hex.DecodeString(s)
			if err != nil || len(b) != len(vd.VPID{}) {
				return fmt.Errorf("client: bad id %q in watch report", s)
			}
			copy(rep.Legitimate[i][:], b)
		}
		if err := fn(rep); err != nil {
			return err
		}
	}
	return sc.Err()
}

// BankKey fetches the system's blind-signature public key.
func (a *API) BankKey() (*rsa.PublicKey, error) {
	resp, err := a.do("GET", "/v1/bank", "", nil, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		N string `json:"n"`
		E int    `json:"e"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	n, ok := new(big.Int).SetString(out.N, 10)
	if !ok {
		return nil, errors.New("client: bad bank modulus")
	}
	return &rsa.PublicKey{N: n, E: out.E}, nil
}

// withdrawBlindSigned runs the client side of one blind-signature
// withdrawal at POST /v1/evidence/payout: blind fresh notes, obtain
// signatures, unblind into spendable cash.
func (a *API) withdrawBlindSigned(id vd.VPID, q vd.Secret, n int, pub *rsa.PublicKey) ([]*reward.Cash, error) {
	if n <= 0 {
		return nil, fmt.Errorf("client: unit count must be positive, got %d", n)
	}
	notes := make([]*reward.Note, n)
	blinded := make([]string, n)
	for i := 0; i < n; i++ {
		note, err := reward.NewNote(pub, rand.Reader)
		if err != nil {
			return nil, err
		}
		notes[i] = note
		blinded[i] = note.Blind(pub).String()
	}
	reqBody, err := json.Marshal(map[string]interface{}{
		"id":      hex.EncodeToString(id[:]),
		"secret":  hex.EncodeToString(q[:]),
		"blinded": blinded,
	})
	if err != nil {
		return nil, err
	}
	resp, err := a.do("POST", "/v1/evidence/payout", "application/json", reqBody, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Signatures []string `json:"signatures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Signatures) != n {
		return nil, fmt.Errorf("client: got %d signatures, want %d", len(out.Signatures), n)
	}
	cash := make([]*reward.Cash, n)
	for i, s := range out.Signatures {
		sig, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return nil, fmt.Errorf("client: signature %d not decimal", i)
		}
		c, err := notes[i].Unblind(pub, sig)
		if err != nil {
			return nil, fmt.Errorf("client: unblinding unit %d: %w", i, err)
		}
		cash[i] = c
	}
	return cash, nil
}

// redeemAt spends one unit of cash at POST /v1/evidence/redeem.
func (a *API) redeemAt(c *reward.Cash) error {
	reqBody, err := json.Marshal(map[string]string{
		"m": base64.StdEncoding.EncodeToString(c.M), "sig": c.Sig.String(),
	})
	if err != nil {
		return err
	}
	resp, err := a.do("POST", "/v1/evidence/redeem", "application/json", reqBody, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}
