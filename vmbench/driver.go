package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"viewmap/internal/obs"
	"viewmap/internal/server"
)

// maxWall bounds one invocation's wall time (rounds stop starting
// after it), keeping a slow machine under the 180 s exit deadline.
const maxWall = 120 * time.Second

// output is what one invocation prints.
type output struct {
	detail map[string]any
	result result
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAcc accumulates the measured rounds of one kind (traced or not).
type runAcc struct {
	rounds    int
	window    time.Duration
	cpu       time.Duration
	setups    []float64
	heapPerVP []float64
	rec       *recorder
	ctr       map[string]float64
	rt        rtSample
}

func newRunAcc(traced bool) *runAcc {
	return &runAcc{rec: newRecorder(traced), ctr: make(map[string]float64)}
}

func (a *runAcc) add(rec *recorder, window, cpu time.Duration, setup float64, heapPerVP float64, ctr map[string]float64, rt rtSample) {
	a.rounds++
	a.window += window
	a.cpu += cpu
	a.setups = append(a.setups, setup)
	a.heapPerVP = append(a.heapPerVP, heapPerVP)
	m := a.rec
	m.ops += rec.ops
	m.attempted += rec.attempted
	m.failed += rec.failed
	m.opLat = append(m.opLat, rec.opLat...)
	for k, v := range rec.named {
		m.named[k] = append(m.named[k], v...)
	}
	m.busy += rec.busy
	for k, v := range rec.units {
		m.units[k] += v
	}
	for k, v := range rec.spans {
		m.spans[k] += v
	}
	for k, v := range ctr {
		a.ctr[k] += v
	}
	a.rt = a.rt.plus(rt)
}

func newWorkload(cfg benchConfig) (workload, error) {
	switch cfg.workload {
	case "ingest":
		w, err := newIngest(cfg)
		return w, err
	case "investigate":
		w, err := newInvestigate(cfg)
		return w, err
	case "live":
		return newLive(cfg)
	case "evidence":
		w, err := newEvidence(cfg)
		return w, err
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, investigate, live or evidence)", cfg.workload)
}

// runBenchmark generates the inputs, runs warm-up and measured rounds
// and assembles the result.
func runBenchmark(cfg benchConfig) (*output, error) {
	key, err := loadBankKey()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	fsync := func(f *os.File) error {
		start := time.Now()
		err := f.Sync()
		if cfg.fsyncSlowdown > 0 {
			time.Sleep(time.Duration(cfg.fsyncSlowdown * float64(time.Since(start))))
		}
		return err
	}
	plain := newRunAcc(false)
	traced := newRunAcc(true)
	var oracleErrs []string
	begin := time.Now()
	for r := 0; ; r++ {
		isTraced := cfg.trace && r > 0 && r%2 == 0
		env := &roundEnv{
			round: r, key: key, fsync: fsync,
			dir: filepath.Join(cfg.runDir, fmt.Sprintf("round-%d", r)),
		}
		base := heapAfterGC()
		t0 := time.Now()
		sys, err := w.setup(env)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		setup := time.Since(t0).Seconds()
		rec := newRecorder(isTraced)
		runtime.GC()
		ctr0 := flatCounters(sys)
		rt0 := readRuntime()
		cpu0 := cpuTime()
		w0 := time.Now()
		execErr := w.exec(env, sys, rec)
		window := time.Since(w0)
		cpu := cpuTime() - cpu0
		rt := readRuntime().minus(rt0)
		ctr := diffCounters(flatCounters(sys), ctr0)
		heap := float64(heapAfterGC()) - float64(base)
		resident := w.residentVPs(sys)
		if execErr == nil {
			execErr = w.check(env, sys, rec)
		}
		closeErr := sys.Close()
		os.RemoveAll(env.dir)
		if execErr != nil {
			return nil, fmt.Errorf("round %d: %w", r, execErr)
		}
		if closeErr != nil {
			return nil, fmt.Errorf("round %d close: %w", r, closeErr)
		}
		oracleErrs = append(oracleErrs, rec.errs...)
		if r > 0 {
			acc := plain
			if isTraced {
				acc = traced
			}
			acc.add(rec, window, cpu, setup, ratio(heap, float64(resident)), ctr, rt)
		}
		need := time.Duration(cfg.seconds * float64(time.Second))
		if cfg.trace {
			if plain.rounds > 0 && traced.rounds > 0 && plain.window+traced.window >= need {
				break
			}
		} else if plain.rounds > 0 && plain.window >= need {
			break
		}
		if time.Since(begin) > maxWall && (plain.rounds > 0 && (!cfg.trace || traced.rounds > 0)) {
			break
		}
	}

	res := result{
		Correct:   len(oracleErrs) == 0,
		Attempted: plain.rec.attempted + traced.rec.attempted,
		Failed:    plain.rec.failed + traced.rec.failed,
	}
	detail := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"env":        environment(cfg),
		"rounds":     plain.rounds + traced.rounds,
		"oracle":     oracleErrs,
		"wall_s":     time.Since(begin).Seconds(),
		"attempted":  res.Attempted,
		"failed":     res.Failed,
		"latency_ms": latencyDetail(plain.rec.named),
	}
	if cfg.trace {
		lc := &layerCosts{}
		if err := w.layerPass(lc); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		res.Metrics = layerMetrics(traced, plain, lc)
		detail["samples"] = map[string]int{"traced_ops": traced.rec.ops, "untraced_ops": plain.rec.ops}
	} else {
		res.Metrics, detail["samples"] = endToEnd(plain)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return &output{detail: detail, result: res}, nil
}

// endToEnd computes the end-to-end metrics of the untraced rounds.
func endToEnd(a *runAcc) (map[string]metric, map[string]int) {
	lat := sortedCopy(a.rec.opLat)
	ops := float64(a.rec.ops)
	m := map[string]metric{
		"setup_s":           {median(a.setups), "s"},
		"latency_p50_ms":    {ms(quantile(lat, 0.50)), "ms"},
		"latency_p90_ms":    {ms(quantile(lat, 0.90)), "ms"},
		"ops_per_s":         {ops / a.window.Seconds(), "1/s"},
		"cpu_us_per_op":     {ratio(us(a.cpu), ops), "us"},
		"heap_bytes_per_vp": {median(a.heapPerVP), "B"},
	}
	samples := map[string]int{
		"setup_s":           len(a.setups),
		"latency_p50_ms":    len(lat),
		"latency_p90_ms":    len(lat),
		"ops_per_s":         a.rec.ops,
		"cpu_us_per_op":     a.rec.ops,
		"heap_bytes_per_vp": len(a.heapPerVP),
	}
	return m, samples
}

// latencyDetail summarizes the per-endpoint latencies; p99 is given
// only when at least ten samples lie above it.
func latencyDetail(named map[string][]time.Duration) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for name, d := range named {
		s := sortedCopy(d)
		e := map[string]float64{
			"n":   float64(len(s)),
			"p50": ms(quantile(s, 0.50)),
			"p90": ms(quantile(s, 0.90)),
		}
		if len(s) >= 1000 {
			e["p99"] = ms(quantile(s, 0.99))
		}
		out[name] = e
	}
	return out
}

// flatCounters reads the server's public counters (stage histogram
// totals, durability, retention, TrustRank, admission and evidence
// stats) into one flat map, so window deltas are a subtraction. Only
// the exact Sum/Count totals of the power-of-two histograms are used.
func flatCounters(sys *server.System) map[string]float64 {
	reg := sys.Metrics()
	m := make(map[string]float64)
	for i, s := range reg.StageSnapshots() {
		name := obs.Stage(i).String()
		m["stage."+name+".ns"] = float64(s.Sum)
		m["stage."+name+".count"] = float64(s.Count)
	}
	wb := reg.WALBatchSnapshot()
	m["walbatch.sum"] = float64(wb.Sum)
	m["walbatch.count"] = float64(wb.Count)
	for mode, s := range reg.TrustRankSnapshots() {
		m["trust."+mode+".count"] = float64(s.Count)
	}
	dur := sys.DurabilityStatsSnapshot()
	m["fsync.count"] = float64(dur.Fsyncs)
	m["fsync.ms"] = dur.FsyncTotalMS
	m["checkpoint.count"] = float64(dur.Snapshots)
	m["checkpoint.ms"] = dur.SnapshotTotalMS
	ret := sys.Store().RetentionStatsSnapshot()
	m["evict.count"] = float64(ret.Evictions)
	m["evict.ms"] = ret.EvictionTotalMS
	ov := sys.OverloadStatsSnapshot()
	for _, cl := range []server.ClassAdmissionStats{ov.Ingest, ov.Investigate, ov.Evidence} {
		m["admit"] += float64(cl.Admitted)
		m["shed"] += float64(cl.Shed)
	}
	ev := sys.Evidence().StatsSnapshot()
	m["evidence.accepted"] = float64(ev.DeliveriesAccepted)
	m["evidence.rejected"] = float64(ev.DeliveriesRejected)
	return m
}

func diffCounters(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocs, allocBytes float64
	// pauses counts GC stop-the-world pauses per histogram bucket;
	// bounds are the bucket boundaries in seconds.
	pauses []float64
	bounds []float64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		out.bounds = h.Buckets
		for _, c := range h.Counts {
			out.pauses = append(out.pauses, float64(c))
		}
	}
	return out
}

func (a rtSample) minus(b rtSample) rtSample {
	out := rtSample{allocs: a.allocs - b.allocs, allocBytes: a.allocBytes - b.allocBytes, bounds: a.bounds}
	out.pauses = make([]float64, len(a.pauses))
	for i := range a.pauses {
		out.pauses[i] = a.pauses[i]
		if i < len(b.pauses) {
			out.pauses[i] -= b.pauses[i]
		}
	}
	return out
}

func (a rtSample) plus(b rtSample) rtSample {
	out := rtSample{allocs: a.allocs + b.allocs, allocBytes: a.allocBytes + b.allocBytes, bounds: b.bounds}
	if out.bounds == nil {
		out.bounds = a.bounds
	}
	n := max(len(a.pauses), len(b.pauses))
	out.pauses = make([]float64, n)
	for i := range out.pauses {
		if i < len(a.pauses) {
			out.pauses[i] += a.pauses[i]
		}
		if i < len(b.pauses) {
			out.pauses[i] += b.pauses[i]
		}
	}
	return out
}

// pauseQuantileUS returns the q-quantile GC pause in microseconds (the
// upper bound of the bucket holding it; its lower bound for the
// unbounded last bucket).
func (a rtSample) pauseQuantileUS(q float64) float64 {
	var total float64
	for _, c := range a.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var seen float64
	for i, c := range a.pauses {
		seen += c
		if seen >= rank && c > 0 {
			hi := a.bounds[i+1]
			if math.IsInf(hi, 1) {
				hi = a.bounds[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// environment records where and how the numbers were taken.
func environment(cfg benchConfig) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"commit":       envOr("VMBENCH_COMMIT", "unknown"),
		"source_sha":   envOr("VMBENCH_SOURCE", "unknown"),
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpu,
		"fs":           fsType(cfg.runDir),
		"flush_policy": "WAL SyncInterval 0: every ack waits for its group-commit fsync; snapshotter off; checkpoint and retention at minute boundaries",
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"tiny":         cfg.tiny,
		"fsync_slow":   cfg.fsyncSlowdown,
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
