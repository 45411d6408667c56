// Command viewmap-bench regenerates the tables and figures of the
// ViewMap paper's evaluation from this reproduction's simulators.
//
// Usage:
//
//	viewmap-bench [-run regex-less-name] [-scale quick|full] [-seed N]
//
// Each experiment prints the same rows/series the paper reports;
// EXPERIMENTS.md records paper-vs-measured values. "quick" uses
// smaller populations and fewer runs (seconds per experiment); "full"
// approaches the paper's scale (minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"viewmap/internal/sim"
)

type experiment struct {
	name string
	desc string
	run  func(scale string, seed int64) error
}

// jsonOut, when set via -json, is where the scenario experiment
// writes its SLO report.
var jsonOut string

func main() {
	names := []string{"all"}
	for _, ex := range experiments() {
		names = append(names, ex.name)
	}
	runName := flag.String("run", "all", "experiment to run ("+strings.Join(names, ", ")+")")
	scale := flag.String("scale", "quick", "quick or full")
	seed := flag.Int64("seed", 42, "base random seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile after the selected experiments to this file")
	flag.StringVar(&jsonOut, "json", "", "write the scenario SLO report to this file")
	flag.Parse()
	if *scale != "quick" && *scale != "full" {
		fmt.Fprintln(os.Stderr, "scale must be quick or full")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	selected := strings.ToLower(*runName)
	ran := 0
	for _, ex := range experiments() {
		if selected != "all" && selected != ex.name {
			continue
		}
		fmt.Printf("==== %s — %s (scale=%s) ====\n", ex.name, ex.desc, *scale)
		t0 := time.Now()
		if err := ex.run(*scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", ex.name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runName)
		os.Exit(2)
	}
}

func experiments() []experiment {
	return []experiment{
		{"table1", "realtime plate blurring frame rates", runTable1},
		{"fig8", "hash generation time, cascade vs normal", runFig8},
		{"fig9", "volume of VP creation vs neighbors", runFig9},
		{"fig10", "location entropy over time (4x4 km)", runFig10},
		{"fig11", "tracking success ratio over time (4x4 km)", runFig11},
		{"fig12", "verification accuracy vs attacker position", runFig12},
		{"fig13", "verification accuracy vs attacker dummy VPs", runFig13},
		{"fig14", "Bloom false linkage rate", runFig14},
		{"fig15", "VP linkage ratio vs distance by environment", runFig15},
		{"fig16", "PDR vs RSSI", runFig16},
		{"fig17", "VLR vs distance by speed and traffic", runFig17},
		{"table2", "scripted LOS/NLOS scenario suite", runTable2},
		{"fig20", "correlation of VP links and video contents", runFig20},
		{"fig21", "viewmaps from traffic traces", runFig21},
		{"fig22ab", "city-scale entropy and tracking success", runFig22AB},
		{"fig22c", "average contact time by speed", runFig22C},
		{"fig22d", "city-scale accuracy vs attacker position", runFig22D},
		{"fig22e", "city-scale concentration attacks", runFig22E},
		{"fig22f", "viewmap member VP percentage", runFig22F},
		{"overhead", "VD/VP communication and storage overhead", runOverhead},
		{"attack-serving", "online attack campaigns through the live HTTP serving path, cross-checked offline (not in the paper)", runAttackServing},
		{"scenario", "city-scale scenario: multi-city fault-injected workload with SLO report and baseline cross-check (not in the paper)", runScenario},
		{"scenario-faults", "fault families: crash-and-recover, clock skew, asymmetric partitions, long-horizon retention — each bit-for-bit against an unfaulted baseline (not in the paper)", runScenarioFaults},
		{"ablation", "damping and guard-alpha ablations (not in the paper)", runAblation},
	}
}

func pick(scale string, quick, full int) int {
	if scale == "full" {
		return full
	}
	return quick
}

func runTable1(scale string, seed int64) error {
	rows, err := sim.Table1(pick(scale, 20, 120))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println("note: platform rows are host times scaled by relative CPU factors (see EXPERIMENTS.md)")
	return nil
}

func runFig8(scale string, seed int64) error {
	bps := pick(scale, 200_000, 833_333) // full scale = 50 MB/min
	rows, err := sim.Fig8(bps)
	if err != nil {
		return err
	}
	fmt.Printf("stream rate %d B/s\n", bps)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig9(string, int64) error {
	for _, r := range sim.Fig9() {
		fmt.Println(r)
	}
	return nil
}

func privacyConfig(scale string, seed int64) sim.PrivacyConfig {
	cfg := sim.PrivacyConfig{
		Minutes: pick(scale, 12, 20),
		BlocksX: 20, BlocksY: 20, SpacingM: 200, // 4x4 km
		Seed:                 seed,
		IncludeBareReference: true,
	}
	if scale == "full" {
		cfg.Vehicles = []int{50, 100, 150, 200}
	} else {
		cfg.Vehicles = []int{50, 100}
	}
	return cfg
}

func printPrivacy(curves []sim.PrivacyCurve, entropy bool) {
	for _, c := range curves {
		fmt.Printf("%s:\n", c.Label)
		series := c.Success
		unit := "success"
		if entropy {
			series = c.EntropyBit
			unit = "bits"
		}
		for m, v := range series {
			fmt.Printf("  t=%2d min  %s %.3f\n", m, unit, v)
		}
	}
}

func runFig10(scale string, seed int64) error {
	curves, err := sim.Privacy(privacyConfig(scale, seed))
	if err != nil {
		return err
	}
	printPrivacy(curves, true)
	return nil
}

func runFig11(scale string, seed int64) error {
	curves, err := sim.Privacy(privacyConfig(scale, seed))
	if err != nil {
		return err
	}
	printPrivacy(curves, false)
	return nil
}

func verifyConfig(scale string, seed int64) sim.VerifyConfig {
	return sim.VerifyConfig{
		LegitVPs: pick(scale, 300, 1000),
		Runs:     pick(scale, 5, 100),
		Seed:     seed,
	}
}

func runFig12(scale string, seed int64) error {
	rows, err := sim.Fig12(verifyConfig(scale, seed))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig13(scale string, seed int64) error {
	rows, err := sim.Fig13(verifyConfig(scale, seed))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig14(string, int64) error {
	for _, r := range sim.Fig14() {
		fmt.Println(r)
	}
	return nil
}

func runFig15(scale string, seed int64) error {
	rows, err := sim.Fig15(pick(scale, 192, 768), seed)
	if err != nil {
		return err
	}
	sim.SortVLRRows(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig16(scale string, seed int64) error {
	for _, r := range sim.Fig16(pick(scale, 40, 200), seed) {
		fmt.Println(r)
	}
	return nil
}

func runFig17(scale string, seed int64) error {
	rows, err := sim.Fig17(pick(scale, 64, 512), seed)
	if err != nil {
		return err
	}
	sim.SortVLRRows(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runTable2(scale string, seed int64) error {
	rows, err := sim.Table2(pick(scale, 20, 100), seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig20(scale string, seed int64) error {
	rows, err := sim.Fig20(pick(scale, 256, 1024), seed)
	if err != nil {
		return err
	}
	sim.SortVLRRows(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig21(scale string, seed int64) error {
	rows, err := sim.Fig21(pick(scale, 150, 1000), pick(scale, 2, 5), seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println("note: pass the DOT output to graphviz neato for the Fig 21 renderings")
	return nil
}

func runFig22AB(scale string, seed int64) error {
	cfg := sim.PrivacyConfig{
		Vehicles: []int{pick(scale, 200, 1000)},
		Minutes:  pick(scale, 12, 20),
		BlocksX:  40, BlocksY: 40, SpacingM: 200, // 8x8 km
		Seed:                 seed,
		IncludeBareReference: true,
	}
	curves, err := sim.Privacy(cfg)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 22a: location entropy --")
	printPrivacy(curves, true)
	fmt.Println("-- Fig 22b: tracking success ratio --")
	printPrivacy(curves, false)
	return nil
}

func runFig22C(scale string, seed int64) error {
	rows, err := sim.Fig22C(pick(scale, 120, 1000), pick(scale, 3, 10), seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig22D(scale string, seed int64) error {
	rows, err := sim.Fig22D(sim.CityVerifyConfig{
		Vehicles: pick(scale, 250, 1000),
		Runs:     pick(scale, 4, 50),
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig22E(scale string, seed int64) error {
	rows, err := sim.Fig22E(sim.CityVerifyConfig{
		Vehicles: pick(scale, 250, 1000),
		Runs:     pick(scale, 4, 50),
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runFig22F(scale string, seed int64) error {
	rows, err := sim.Fig22F(pick(scale, 150, 1000), pick(scale, 2, 5), seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runOverhead(string, int64) error {
	fmt.Println(sim.Overhead())
	return nil
}

func runAttackServing(scale string, seed int64) error {
	res, err := sim.AttackServing(sim.AttackServingConfig{
		LegitVPs:  pick(scale, 150, 1000),
		FakePct:   100,
		Owners:    pick(scale, 3, 5),
		BatchSize: 64,
		SweepRuns: pick(scale, 1, 10),
		SweepPcts: []int{100, 300, 500},
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	for _, r := range res.Rows() {
		fmt.Println(r)
	}
	return nil
}

func runScenario(scale string, seed int64) error {
	cfg := sim.QuickScenarioConfig(seed)
	if scale == "full" {
		cfg.Cities = []sim.CityConfig{
			{Vehicles: 60, BlocksX: 10, BlocksY: 10, SpacingM: 200},
			{Vehicles: 40, BlocksX: 8, BlocksY: 8, SpacingM: 200},
			{Vehicles: 30, BlocksX: 6, BlocksY: 6, SpacingM: 200},
		}
		cfg.Minutes = 10
		cfg.BatchSize = 16
		cfg.Overload.IngestSlots = 4
		cfg.Overload.IngestQueue = 8
		cfg.Incidents = []sim.IncidentPlan{
			{Minute: 3, City: 0, Units: 2, Polls: 8},
			{Minute: 6, City: 2, Units: 3, Polls: 8},
		}
		cfg.Faults.FsyncStallFrom = 2
		cfg.Faults.FsyncStallMinutes = 3
		cfg.Faults.PartitionFrom = 8
		cfg.Faults.SnapshotPauseFrom = 3
	}
	res, err := sim.Scenario(cfg)
	if err != nil {
		return err
	}
	// The fault families ride the same report so the CI gate regresses
	// on their counters and latencies alongside the main scenario's.
	res.Families, err = sim.RunFaultFamilies(seed)
	if err != nil {
		return err
	}
	for _, r := range res.Rows() {
		fmt.Println(r)
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("SLO report written to %s\n", jsonOut)
	}
	return nil
}

func runScenarioFaults(scale string, seed int64) error {
	fams, err := sim.RunFaultFamilies(seed)
	if err != nil {
		return err
	}
	for _, f := range fams {
		fmt.Printf("%s: %d probes bit-for-bit, zero acked loss; upload p99 %.1f ms, investigate p99 %.1f ms\n",
			f.Name, f.ProbesCompared, f.Upload.P99MS, f.Investigate.P99MS)
		fmt.Printf("  crashes %d (WAL records replayed %d), stale rejected %d, partition rejects %d, cold probes %d, watch reports %d\n",
			f.Crashes, f.WALReplayed, f.StaleRejectedVPs, f.PartitionRejects, f.ColdProbes, f.WatchReports)
	}
	return nil
}

func runAblation(scale string, seed int64) error {
	fmt.Println("-- TrustRank damping sweep (paper fixes delta=0.8) --")
	dRows, err := sim.AblationDamping(pick(scale, 150, 500), pick(scale, 3, 20), seed)
	if err != nil {
		return err
	}
	for _, r := range dRows {
		fmt.Println(r)
	}
	fmt.Println("-- guard-VP alpha sweep (paper fixes alpha=0.1) --")
	aRows, err := sim.AblationAlpha(pick(scale, 60, 200), pick(scale, 8, 15), seed)
	if err != nil {
		return err
	}
	for _, r := range aRows {
		fmt.Println(r)
	}
	return nil
}
