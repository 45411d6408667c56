package sim

import (
	"bytes"
	"reflect"
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/vd"
)

// TestNeighborPairsMatchNaive pins the grid-bucketed neighbor search
// against a naive all-pairs reimplementation: same pair set, same
// per-pair contact-second counts, and the >= 2 s contact threshold
// honored.
func TestNeighborPairsMatchNaive(t *testing.T) {
	run := smallCity(t, 25, 2)
	for m := 0; m < 2; m++ {
		got := run.neighborPairs(m)
		want := naivePairs(run, m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d: grid pairs %v, naive pairs %v", m, got, want)
		}
		for k, c := range got {
			if k[0] >= k[1] {
				t.Fatalf("pair key %v not ordered", k)
			}
			if c < 2 || c > vd.SegmentSeconds {
				t.Fatalf("pair %v contact seconds %d outside [2, %d]", k, c, vd.SegmentSeconds)
			}
		}
	}
}

// naivePairs recomputes neighborPairs with an O(n^2) scan per second.
func naivePairs(run *CityRun, m int) map[[2]int]int {
	counts := make(map[[2]int]int)
	base := m * vd.SegmentSeconds
	for s := 0; s < vd.SegmentSeconds; s++ {
		for a := 0; a < run.Trace.NumVehicles(); a++ {
			for b := a + 1; b < run.Trace.NumVehicles(); b++ {
				pa, pb := run.Trace.Positions[a][base+s], run.Trace.Positions[b][base+s]
				if pa.Dist(pb) <= run.Cfg.DSRCRangeM && run.Index.LOS(pa, pb) {
					counts[[2]int{a, b}]++
				}
			}
		}
	}
	pairs := make(map[[2]int]int)
	for k, c := range counts {
		if c >= 2 {
			pairs[k] = c
		}
	}
	return pairs
}

// TestContactIntervalsMatchPairs cross-checks ContactIntervals against
// the per-minute pair sets: every recorded interval is positive and
// the interval count is at least the distinct linked-pair count (a
// pair relinking after a gap records several intervals).
func TestContactIntervalsMatchPairs(t *testing.T) {
	run := smallCity(t, 30, 2)
	intervals := run.ContactIntervals()
	linked := make(map[[2]int]bool)
	for m := 0; m < 2; m++ {
		for k := range run.neighborPairs(m) {
			linked[k] = true
		}
	}
	if len(linked) > 0 && len(intervals) == 0 {
		t.Fatal("linked pairs exist but no contact intervals recorded")
	}
	for _, iv := range intervals {
		if iv <= 0 || iv > 2*vd.SegmentSeconds {
			t.Fatalf("interval %d outside (0, %d]", iv, 2*vd.SegmentSeconds)
		}
	}
}

// TestProfilesForMinuteDeterministic fabricates the same city twice
// from one seed and requires byte-identical profiles: the fabrication
// rng must be consumed in a stable order regardless of who later
// subsets the fleet (churn and diurnal gating happen above this
// layer).
func TestProfilesForMinuteDeterministic(t *testing.T) {
	mk := func() *CityRun {
		run, err := NewCityRun(CityConfig{
			Vehicles: 20, Minutes: 2, BlocksX: 6, BlocksY: 6,
			MeanSpeedKmh: 50, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := mk(), mk()
	for m := 0; m < 2; m++ {
		pa, err := a.ProfilesForMinute(m, true)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.ProfilesForMinute(m, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(pa.Profiles) != len(pb.Profiles) || pa.Guards != pb.Guards {
			t.Fatalf("minute %d: %d/%d profiles, %d/%d guards",
				m, len(pa.Profiles), len(pb.Profiles), pa.Guards, pb.Guards)
		}
		for i := range pa.Profiles {
			if !bytes.Equal(pa.Profiles[i].Marshal(), pb.Profiles[i].Marshal()) {
				t.Fatalf("minute %d profile %d differs between same-seed runs", m, i)
			}
		}
		if !reflect.DeepEqual(pa.Pairs, pb.Pairs) {
			t.Fatalf("minute %d pair sets differ", m)
		}
	}
}

// TestCityOriginTranslation moves a city by a fixed offset and
// requires a pure translation: the mobility traces shift by exactly
// the offset, the viewlink pair structure is unchanged, and Area()
// reports the translated footprint.
func TestCityOriginTranslation(t *testing.T) {
	base := CityConfig{
		Vehicles: 15, Minutes: 1, BlocksX: 5, BlocksY: 5,
		SpacingM: 150, MeanSpeedKmh: 50, Seed: 21,
	}
	moved := base
	moved.OriginX, moved.OriginY = 5000, -3000
	a, err := NewCityRun(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCityRun(moved)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.Trace.NumVehicles(); v++ {
		for s := 0; s < vd.SegmentSeconds; s++ {
			pa, pb := a.Trace.Positions[v][s], b.Trace.Positions[v][s]
			want := geo.Pt(pa.X+5000, pa.Y-3000)
			if pb.Dist(want) > 1e-6 {
				t.Fatalf("vehicle %d second %d: %v not translated to %v (got %v)", v, s, pa, want, pb)
			}
		}
	}
	if !reflect.DeepEqual(a.neighborPairs(0), b.neighborPairs(0)) {
		t.Fatal("translation changed the viewlink pair structure")
	}
	aa, ba := a.Area(), b.Area()
	if ba.Min.X != aa.Min.X+5000 || ba.Min.Y != aa.Min.Y-3000 ||
		ba.Max.X != aa.Max.X+5000 || ba.Max.Y != aa.Max.Y-3000 {
		t.Fatalf("Area not translated: %v vs %v", aa, ba)
	}
	// Disjoint footprints must never share a point.
	if aa.Max.X > ba.Min.X && ba.Max.X > aa.Min.X &&
		aa.Max.Y > ba.Min.Y && ba.Max.Y > aa.Min.Y {
		t.Fatal("offset cities overlap")
	}
}

// TestTrackingExperimentsDeterministic runs the guard-VP tracking
// experiments twice in one process with the same seed and requires
// identical rows. Go randomizes map iteration on every range, so a
// guard draw that inherits map order shows up as a difference here.
func TestTrackingExperimentsDeterministic(t *testing.T) {
	privacy := func() []PrivacyCurve {
		curves, err := Privacy(PrivacyConfig{
			Vehicles: []int{40}, Minutes: 4,
			BlocksX: 6, BlocksY: 6, SpacingM: 250, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curves
	}
	if a, b := privacy(), privacy(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed Privacy runs differ:\n%+v\n%+v", a, b)
	}
	alpha := func() []AlphaRow {
		rows, err := AblationAlpha(40, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if a, b := alpha(), alpha(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed AblationAlpha runs differ:\n%+v\n%+v", a, b)
	}
}
