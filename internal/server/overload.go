package server

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"viewmap/internal/obs"
)

// Server-side overload discipline. Under a city-scale upload storm the
// service must keep answering investigations; the way it does that is
// not priority inversion inside one queue but hard isolation between
// endpoint classes: uploads, investigations, and the evidence flow
// each get their own bounded admission gate (a slot pool plus a
// bounded wait queue), so a saturated ingest path can never starve an
// investigator of a slot. When both the slots and the queue of a class
// are full, the request is shed immediately with 429 Too Many Requests
// and a Retry-After header — explicit backpressure the client retries
// against (client.API honors it with jittered backoff) instead of an
// unbounded in-server pileup. Every admission, shed, queue depth, and
// active count is exported per class in GET /v1/stats, so a test (or
// an operator) can assert exactly how much load was turned away and
// where. docs/operations.md ("Overload & degraded modes") is the
// operator view.

// endpointClass buckets the HTTP surface for admission control.
type endpointClass int

const (
	// classNone marks endpoints that are never gated (stats, metrics,
	// bank key): monitoring must keep working during the very overload
	// it reports.
	classNone endpointClass = iota
	// classIngest covers the upload paths: anonymous and trusted VP
	// uploads and batched uploads.
	classIngest
	// classInvestigate covers the authority paths: investigations,
	// verdict reports, evidence solicitation, and evidence release.
	classInvestigate
	// classEvidence covers the vehicle-facing evidence flow: board
	// polls, deliveries, payouts, redemptions.
	classEvidence
)

// classifyEndpoint maps a request path onto its admission class (the
// route table's); paths outside the table are ungated.
func classifyEndpoint(path string) endpointClass { return routeClass[path] }

// OverloadConfig bounds the concurrent work each endpoint class may
// hold. A request beyond a class's slot count waits in that class's
// bounded queue; a request beyond slots+queue is shed with 429 and a
// Retry-After of RetryAfter. The zero value selects generous defaults
// that never shed under test-scale load; scenario and overload tests
// tighten them to force shedding deterministically.
type OverloadConfig struct {
	// IngestSlots is the concurrent upload admission count; zero
	// selects 64.
	IngestSlots int
	// IngestQueue bounds uploads waiting for a slot; zero selects 256.
	IngestQueue int
	// InvestigateSlots is the concurrent authority-request admission
	// count; zero selects 16. Investigations never compete with
	// uploads: this pool is theirs alone.
	InvestigateSlots int
	// InvestigateQueue bounds waiting authority requests; zero
	// selects 64.
	InvestigateQueue int
	// EvidenceSlots is the concurrent evidence/reward admission count;
	// zero selects 32.
	EvidenceSlots int
	// EvidenceQueue bounds waiting evidence requests; zero selects 128.
	EvidenceQueue int
	// RetryAfter is the backoff hint sent with every 429 (rounded up
	// to whole seconds on the wire); zero selects one second.
	RetryAfter time.Duration
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.IngestSlots <= 0 {
		c.IngestSlots = 64
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 256
	}
	if c.InvestigateSlots <= 0 {
		c.InvestigateSlots = 16
	}
	if c.InvestigateQueue <= 0 {
		c.InvestigateQueue = 64
	}
	if c.EvidenceSlots <= 0 {
		c.EvidenceSlots = 32
	}
	if c.EvidenceQueue <= 0 {
		c.EvidenceQueue = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// admissionGate is one class's slot pool plus bounded wait queue.
type admissionGate struct {
	sem      chan struct{}
	queueCap int64

	queued   atomic.Int64
	active   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
}

func newAdmissionGate(slots, queue int) *admissionGate {
	return &admissionGate{sem: make(chan struct{}, slots), queueCap: int64(queue)}
}

// tryAcquire claims a slot, waiting in the bounded queue when all
// slots are busy. It returns false — the request is shed — when the
// queue is full too. The caller must release() after true.
func (g *admissionGate) tryAcquire() bool {
	select {
	case g.sem <- struct{}{}:
	default:
		if g.queued.Add(1) > g.queueCap {
			g.queued.Add(-1)
			g.shed.Add(1)
			return false
		}
		g.sem <- struct{}{}
		g.queued.Add(-1)
	}
	g.active.Add(1)
	g.admitted.Add(1)
	return true
}

func (g *admissionGate) release() {
	g.active.Add(-1)
	<-g.sem
}

// snapshot reads the gate's counters.
func (g *admissionGate) snapshot() ClassAdmissionStats {
	return ClassAdmissionStats{
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
		Queued:   int(g.queued.Load()),
		Active:   int(g.active.Load()),
	}
}

// className is the label an admission class carries on
// viewmap_admission_queue_depth and in docs; classNone has none.
func (c endpointClass) className() string {
	switch c {
	case classIngest:
		return "ingest"
	case classInvestigate:
		return "investigate"
	case classEvidence:
		return "evidence"
	}
	return ""
}

// admissionClassNames lists the gated classes, in gate order — the
// label set of the queue-depth histogram.
func admissionClassNames() []string {
	return []string{"ingest", "investigate", "evidence"}
}

// overloadLimiter holds the three class gates behind the HTTP surface.
type overloadLimiter struct {
	ingest      *admissionGate
	investigate *admissionGate
	evidence    *admissionGate
	retryAfter  time.Duration

	// metrics, when non-nil, receives the per-class queue depth
	// observed at every gated arrival (attached by NewSystem; the
	// limiter itself stays registry-free for tests).
	metrics *obs.Registry
}

func newOverloadLimiter(cfg OverloadConfig) *overloadLimiter {
	cfg = cfg.withDefaults()
	return &overloadLimiter{
		ingest:      newAdmissionGate(cfg.IngestSlots, cfg.IngestQueue),
		investigate: newAdmissionGate(cfg.InvestigateSlots, cfg.InvestigateQueue),
		evidence:    newAdmissionGate(cfg.EvidenceSlots, cfg.EvidenceQueue),
		retryAfter:  cfg.RetryAfter,
	}
}

func (l *overloadLimiter) gate(class endpointClass) *admissionGate {
	switch class {
	case classIngest:
		return l.ingest
	case classInvestigate:
		return l.investigate
	case classEvidence:
		return l.evidence
	}
	return nil
}

// retryAfterSeconds is the wire form of the Retry-After hint: whole
// seconds, rounded up, at least 1.
func (l *overloadLimiter) retryAfterSeconds() int {
	s := int(math.Ceil(l.retryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// withAdmission wraps next with per-class admission control: ungated
// classes pass straight through; a shed request is answered 429 with a
// Retry-After header and never reaches next.
func withAdmission(l *overloadLimiter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classifyEndpoint(r.URL.Path)
		g := l.gate(class)
		if g == nil {
			next.ServeHTTP(w, r)
			return
		}
		l.metrics.QueueDepth(class.className()).Record(g.queued.Load())
		if !g.tryAcquire() {
			w.Header().Set("Retry-After", strconv.Itoa(l.retryAfterSeconds()))
			httpError(w, http.StatusTooManyRequests, errOverloaded)
			return
		}
		defer g.release()
		next.ServeHTTP(w, r)
	})
}

// errOverloaded is the 429 body for shed requests.
var errOverloaded = &overloadError{}

type overloadError struct{}

func (*overloadError) Error() string {
	return "server: overloaded, request shed; retry after the indicated backoff"
}

// ClassAdmissionStats are one endpoint class's admission counters in
// GET /v1/stats.
type ClassAdmissionStats struct {
	// Admitted counts requests that got a slot (after queueing or not).
	Admitted uint64 `json:"admitted"`
	// Shed counts requests turned away with 429.
	Shed uint64 `json:"shed"`
	// Queued is the instantaneous wait-queue depth.
	Queued int `json:"queued"`
	// Active is the instantaneous in-flight request count.
	Active int `json:"active"`
}

// OverloadStats are the admission-control counters of GET /v1/stats.
type OverloadStats struct {
	// Ingest, Investigate, and Evidence are the per-class gates.
	Ingest      ClassAdmissionStats `json:"ingest"`
	Investigate ClassAdmissionStats `json:"investigate"`
	Evidence    ClassAdmissionStats `json:"evidence"`
	// RetryAfterSeconds echoes the backoff hint sent with sheds.
	RetryAfterSeconds int `json:"retryAfterSeconds"`
}

// OverloadStatsSnapshot reads the admission gates' counters.
func (sys *System) OverloadStatsSnapshot() OverloadStats {
	l := sys.overload
	return OverloadStats{
		Ingest:            l.ingest.snapshot(),
		Investigate:       l.investigate.snapshot(),
		Evidence:          l.evidence.snapshot(),
		RetryAfterSeconds: l.retryAfterSeconds(),
	}
}
