package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared is the metric table of BENCHMARK.json.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runJSON runs one invocation in-process and decodes its last line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--dir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func namesUnits(ms map[string]metric) []string {
	var out []string
	for name, m := range ms {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func declaredNamesUnits(list []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestTinyWorkloads runs every declared workload at smoke-test scale,
// untraced and traced, and checks the oracle verdict, the failure
// accounting, and that the printed metric names and units are exactly
// those BENCHMARK.json declares.
func TestTinyWorkloads(t *testing.T) {
	d := loadDeclared(t)
	wantE2E := declaredNamesUnits(d.EndToEnd)
	wantLayer := declaredNamesUnits(d.PerLayer)
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				res := runJSON(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.05", "--trace", trace, "--tiny")
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace %s: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := wantE2E
				if trace == "1" {
					want = wantLayer
				}
				if got := namesUnits(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("trace %s metrics\n got %v\nwant %v", trace, got, want)
				}
			}
		})
	}
}

// TestTracedLayersAddUp checks the attribution identity on a traced
// run: the layers' self times plus the unattributed remainder equal
// the traced per-op time.
func TestTracedLayersAddUp(t *testing.T) {
	res := runJSON(t, "--workload", "ingest", "--seed", "5", "--seconds", "0.05", "--trace", "1", "--tiny")
	var sum float64
	for name, m := range res.Metrics {
		if strings.HasSuffix(name, ".self_us_per_op") || name == "bench.unattributed_us_per_op" {
			sum += m.Value
		}
	}
	op := res.Metrics["bench.op_us"].Value
	if op <= 0 || sum < op*(1-1e-9) || sum > op*(1+1e-9) {
		t.Fatalf("self times + unattributed = %v, per-op time %v", sum, op)
	}
}

// TestInjectedFsyncSlowdown is the regression-injection check: a 25%
// slowdown wrapped around the real WAL fsync must show up in ingest's
// batch ack latency and be attributed to server.fsync_us, and must not
// move investigation latency, whose timed window never syncs.
func TestInjectedFsyncSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("paired timing runs")
	}
	const pairs = 3
	measure := func(workload, slow, trace string) []float64 {
		var out []float64
		key := "latency_p50_ms"
		if trace == "1" {
			key = "server.fsync_us"
		}
		for i := 0; i < pairs; i++ {
			res := runJSON(t, "--workload", workload, "--seed", "11", "--seconds", "2", "--trace", trace, "--fsync-slowdown", slow)
			out = append(out, res.Metrics[key].Value)
		}
		sort.Float64s(out)
		return out
	}
	mid := func(v []float64) float64 { return v[len(v)/2] }

	baseFsync, slowFsync := measure("ingest", "0", "1"), measure("ingest", "0.25", "1")
	if r := mid(slowFsync) / mid(baseFsync); r < 1.12 {
		t.Errorf("server.fsync_us moved by %.3fx (%v -> %v), want about 1.25x", r, baseFsync, slowFsync)
	}
	baseAck, slowAck := measure("ingest", "0", "0"), measure("ingest", "0.25", "0")
	if r := mid(slowAck) / mid(baseAck); r < 1.02 {
		t.Errorf("ingest batch ack p50 moved by %.3fx (%v -> %v), want a rise", r, baseAck, slowAck)
	}
	baseInv, slowInv := measure("investigate", "0", "0"), measure("investigate", "0.25", "0")
	if r := mid(slowInv) / mid(baseInv); r < 0.85 || r > 1.15 {
		t.Errorf("investigate p50 moved by %.3fx (%v -> %v), want flat", r, baseInv, slowInv)
	}
	t.Logf("server.fsync_us %.3fx, ingest ack p50 %.3fx, investigate p50 %.3fx",
		mid(slowFsync)/mid(baseFsync), mid(slowAck)/mid(baseAck), mid(slowInv)/mid(baseInv))
}
