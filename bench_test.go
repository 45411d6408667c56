// Package viewmap_bench holds one testing.B benchmark per table and
// figure of the paper's evaluation. Each benchmark regenerates its
// experiment at a reduced scale (so `go test -bench=.` completes in
// minutes) and reports headline metrics through b.ReportMetric; the
// cmd/viewmap-bench binary runs the same experiments at quick or full
// scale with complete row output.
package viewmap_bench

import (
	"testing"

	"viewmap/internal/bloom"
	"viewmap/internal/geo"
	"viewmap/internal/sim"
	"viewmap/internal/vd"
	"viewmap/internal/video"
)

// BenchmarkTable1_PlateBlur profiles the realtime license-plate
// blurring pipeline (blur + I/O per frame, fps).
func BenchmarkTable1_PlateBlur(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Table1(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].FPS, "host-fps")
		}
	}
}

// BenchmarkFig8_CascadeHash measures the constant-time per-second
// digest at the paper's 50 MB/min rate.
func BenchmarkFig8_CascadeHash(b *testing.B) {
	chunk := make([]byte, video.DefaultBytesPerSecond)
	var prev vd.Hash
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev = vd.CascadeStep(int64(i), geo.Pt(1, 2), int64(i), prev, chunk)
	}
	_ = prev
}

// BenchmarkFig8_NormalHash measures the naive full-prefix rehash at
// the end of a minute — the baseline whose cost grows with recording
// time (Fig. 8's rising curve).
func BenchmarkFig8_NormalHash(b *testing.B) {
	chunks := make([][]byte, vd.SegmentSeconds)
	for i := range chunks {
		chunks[i] = make([]byte, video.DefaultBytesPerSecond)
	}
	b.SetBytes(int64(vd.SegmentSeconds * video.DefaultBytesPerSecond))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vd.NormalHash(60, geo.Pt(1, 2), 50e6, chunks)
	}
}

// BenchmarkFig9_GuardVolume measures guard-VP selection volume.
func BenchmarkFig9_GuardVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sim.Fig9()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig10_11_Privacy runs the guard-VP tracking study at small
// scale and reports final-minute tracking success with guards.
func BenchmarkFig10_11_Privacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.Privacy(sim.PrivacyConfig{
			Vehicles: []int{50}, Minutes: 10,
			BlocksX: 20, BlocksY: 20, SpacingM: 200,
			Seed: int64(i), IncludeBareReference: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(curves[0].Success) - 1
			b.ReportMetric(curves[0].Success[last], "guarded-success")
			b.ReportMetric(curves[1].Success[last], "bare-success")
		}
	}
}

// BenchmarkFig12_VerifyPositions runs the attacker-position sweep at
// reduced scale and reports mean accuracy.
func BenchmarkFig12_VerifyPositions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig12(sim.VerifyConfig{LegitVPs: 150, Runs: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(meanAccuracy(rows), "accuracy")
		}
	}
}

// BenchmarkFig13_ConcentrationAttack runs the dummy-VP sweep at
// reduced scale.
func BenchmarkFig13_ConcentrationAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig13(sim.VerifyConfig{LegitVPs: 150, Runs: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(meanAccuracy(rows), "accuracy")
		}
	}
}

// BenchmarkFig14_FalseLinkage evaluates the Bloom false-linkage
// closed form across the paper's parameter grid.
func BenchmarkFig14_FalseLinkage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sim.Fig14()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
	b.ReportMetric(bloom.FalseLinkageRate(2048, bloom.OptimalK(2048, 300), 300), "p-2048-300")
}

// BenchmarkFig15_VLREnvironments measures VP linkage ratio vs distance
// across the four field environments.
func BenchmarkFig15_VLREnvironments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig15(32, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig16_PDRvsRSSI generates the PDR/RSSI scatter.
func BenchmarkFig16_PDRvsRSSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sim.Fig16(30, int64(i))
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig17_SpeedTraffic measures VLR vs distance for the
// highway speed/traffic matrix.
func BenchmarkFig17_SpeedTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig17(32, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2_Scenarios runs the fourteen scripted LOS/NLOS
// scenarios.
func BenchmarkTable2_Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Table2(5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 14 {
			b.Fatal("scenario suite incomplete")
		}
	}
}

// BenchmarkFig20_Correlation computes the linkage/visibility phi
// correlation per distance bucket.
func BenchmarkFig20_Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig20(48, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig21_TrafficViewmaps builds viewmaps from traffic traces
// at 50 and 70 km/h.
func BenchmarkFig21_TrafficViewmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig21(100, 1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].Members), "members")
		}
	}
}

// BenchmarkFig22ab_CityPrivacy runs the city-scale tracking study at
// reduced scale.
func BenchmarkFig22ab_CityPrivacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := sim.Privacy(sim.PrivacyConfig{
			Vehicles: []int{150}, Minutes: 8,
			BlocksX: 40, BlocksY: 40, SpacingM: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(curves[0].Success) - 1
			b.ReportMetric(curves[0].Success[last], "success")
			b.ReportMetric(curves[0].EntropyBit[last], "entropy-bits")
		}
	}
}

// BenchmarkFig22c_ContactTime measures mean vehicle contact intervals
// by speed.
func BenchmarkFig22c_ContactTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig22C(60, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].MeanContact, "mean-contact-s")
		}
	}
}

// BenchmarkFig22d_CityVerify sweeps attacker positions on
// traffic-derived viewmaps.
func BenchmarkFig22d_CityVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig22D(sim.CityVerifyConfig{Vehicles: 150, Runs: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(meanAccuracy(rows), "accuracy")
		}
	}
}

// BenchmarkFig22e_CityConcentration runs the city-scale concentration
// attack.
func BenchmarkFig22e_CityConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig22E(sim.CityVerifyConfig{Vehicles: 150, Runs: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(meanAccuracy(rows), "accuracy")
		}
	}
}

// BenchmarkFig22f_Membership measures the viewmap member-VP
// percentage by speed.
func BenchmarkFig22f_Membership(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig22F(80, 1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].MemberPct, "member-pct")
		}
	}
}

// BenchmarkOverhead_VDVP reports the Section 6.1 size accounting.
func BenchmarkOverhead_VDVP(b *testing.B) {
	var o sim.OverheadReport
	for i := 0; i < b.N; i++ {
		o = sim.Overhead()
	}
	b.ReportMetric(float64(o.VDBytes), "vd-bytes")
	b.ReportMetric(float64(o.VPBytes), "vp-bytes")
}

func meanAccuracy(rows []sim.VerifyRow) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Runs > 0 {
			sum += r.Accuracy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
