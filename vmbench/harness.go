package main

import (
	"bytes"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"viewmap/internal/reward"
	"viewmap/internal/server"
)

// authToken authenticates the benchmark's authority requests.
const authToken = "vmbench-authority"

// workload is one named traffic mix. A run generates the inputs once
// (untimed), then repeats rounds: each round builds a fresh system
// (the timed set-up), runs a fixed amount of timed work against it,
// checks the outputs and tears the system down. Round 0 is a warm-up
// whose numbers are discarded.
type workload interface {
	// setup builds and loads a fresh system; its wall time is one
	// setup_s sample.
	setup(env *roundEnv) (*server.System, error)
	// exec runs the round's timed operations through the HTTP handler.
	exec(env *roundEnv, sys *server.System, rec *recorder) error
	// check verifies the round's outputs against the workload's oracle.
	check(env *roundEnv, sys *server.System, rec *recorder) error
	// residentVPs counts the profiles the system holds in memory, the
	// divisor of heap_bytes_per_vp.
	residentVPs(sys *server.System) int
	// layerPass times each lower layer's public entry points on the
	// run's exact inputs (traced runs only).
	layerPass(lc *layerCosts) error
}

// roundEnv is what a round's set-up and timed work may use.
type roundEnv struct {
	round int
	dir   string
	key   *rsa.PrivateKey
	// fsync is the WAL sync seam: the real (*os.File).Sync, followed by
	// the injected slowdown when one is configured.
	fsync func(*os.File) error
}

// openDurable opens a fresh WAL-backed system in the round directory:
// every ack waits for its group-commit fsync (SyncInterval 0), and
// no timer-driven work runs inside a timed window — the snapshotter is
// off and the retention sweep interval outlasts the run, so workloads
// call Checkpoint and ApplyRetention themselves at minute boundaries.
func openDurable(env *roundEnv, retentionMinutes int) (*server.System, error) {
	return server.OpenDurable(
		server.Config{AuthorityToken: authToken, Bank: reward.NewBankFromKey(env.key)},
		server.DurabilityConfig{
			WALPath:           filepath.Join(env.dir, "ingest.wal"),
			SyncInterval:      0,
			SnapshotInterval:  0,
			RetentionMinutes:  retentionMinutes,
			RetentionInterval: time.Hour,
			Fsync:             env.fsync,
		})
}

// loadBankKey parses the checked-in PEM key.
func loadBankKey() (*rsa.PrivateKey, error) {
	path, err := bankKeyPath()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(data)
	if block == nil {
		return nil, fmt.Errorf("%s: no PEM block", path)
	}
	return x509.ParsePKCS1PrivateKey(block.Bytes)
}

// call sends one request through the handler and returns the status
// and body.
func call(h http.Handler, method, path string, body []byte, header map[string]string) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// authority is the header set of an authority request.
var authority = map[string]string{"X-Viewmap-Authority": authToken}

// recorder collects one round's samples. Safe for concurrent use.
type recorder struct {
	traced bool

	mu sync.Mutex
	// ops counts completed operations in the workload's unit; attempted
	// and failed count them against the oracle (a non-2xx reply that the
	// workload did not expect, or a 429, fails its operation).
	ops, attempted, failed int
	// opLat holds one latency per operation.
	opLat []time.Duration
	// named holds per-endpoint latencies for the detail report.
	named map[string][]time.Duration
	// busy is the clients' total time inside calls into the system, the
	// numerator of the traced per-op time.
	busy time.Duration
	// units counts work items per layer entry point, priced by the
	// layer pass (trace attribution).
	units map[string]float64
	// spans totals benchmark spans around direct calls into the server
	// layer (maintenance, segment reload).
	spans map[string]time.Duration
	// errs keeps the first oracle failures.
	errs []string
}

func newRecorder(traced bool) *recorder {
	return &recorder{
		traced: traced,
		named:  make(map[string][]time.Duration),
		units:  make(map[string]float64),
		spans:  make(map[string]time.Duration),
	}
}

// sample records the duration of one call into the system.
func (r *recorder) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.named[name] = append(r.named[name], d)
	r.busy += d
	r.mu.Unlock()
}

// note records a named duration that is not time spent in a call,
// such as an open-loop send's lateness or a latency from its due time.
func (r *recorder) note(name string, d time.Duration) {
	r.mu.Lock()
	r.named[name] = append(r.named[name], d)
	r.mu.Unlock()
}

func (r *recorder) op(n int, lat time.Duration) {
	r.mu.Lock()
	r.ops += n
	r.opLat = append(r.opLat, lat)
	r.mu.Unlock()
}

// count adds n completed operations that carry no latency sample.
func (r *recorder) count(n int) {
	r.mu.Lock()
	r.ops += n
	r.mu.Unlock()
}

func (r *recorder) attempt(n, failed int) {
	r.mu.Lock()
	r.attempted += n
	r.failed += failed
	r.mu.Unlock()
}

func (r *recorder) unit(name string, n float64) {
	r.mu.Lock()
	r.units[name] += n
	r.mu.Unlock()
}

func (r *recorder) span(name string, d time.Duration) {
	r.mu.Lock()
	r.spans[name] += d
	r.busy += d
	r.mu.Unlock()
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC collects and returns the live heap. The second cycle
// also frees what sync.Pool victim caches (JSON encoder buffers of
// MB-sized replies) kept through the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
