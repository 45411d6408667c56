package client

import (
	"testing"

	"viewmap/internal/geo"
	"viewmap/internal/roadnet"
	"viewmap/internal/vd"
)

func testVehicle(t testing.TB, name string) *Vehicle {
	t.Helper()
	v, err := NewVehicle(VehicleConfig{Name: name, BytesPerSecond: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func guardCity(t testing.TB) *roadnet.City {
	t.Helper()
	c, err := roadnet.BuildGrid(roadnet.GridConfig{Cols: 6, Rows: 6, Spacing: 150})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recordMinute drives a vehicle for one full minute eastbound.
func recordMinute(t testing.TB, v *Vehicle, start int64, y float64) {
	t.Helper()
	if err := v.BeginMinute(start); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 60; s++ {
		if _, err := v.Tick(geo.Pt(float64(s)*10, y)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewVehicleValidation(t *testing.T) {
	if _, err := NewVehicle(VehicleConfig{}); err == nil {
		t.Error("vehicle without a name should fail")
	}
}

func TestLifecycleErrors(t *testing.T) {
	v := testVehicle(t, "lifecycle")
	if _, err := v.Tick(geo.Pt(0, 0)); err == nil {
		t.Error("Tick before BeginMinute should fail")
	}
	if err := v.Hear(vd.VD{}, 0); err == nil {
		t.Error("Hear before BeginMinute should fail")
	}
	if _, _, err := v.EndMinute(nil); err == nil {
		t.Error("EndMinute before BeginMinute should fail")
	}
	if err := v.BeginMinute(0); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginMinute(60); err == nil {
		t.Error("BeginMinute while recording should fail")
	}
	if _, err := v.Tick(geo.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.EndMinute(nil); err == nil {
		t.Error("EndMinute after one second should fail")
	}
}

func TestEndMinuteProducesProfileAndVideo(t *testing.T) {
	v := testVehicle(t, "solo")
	recordMinute(t, v, 0, 0)
	actual, guards, err := v.EndMinute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !actual.Complete() {
		t.Error("actual VP should be complete")
	}
	if len(guards) != 0 {
		t.Error("no neighbors means no guards")
	}
	if v.StoredSegments() != 1 {
		t.Errorf("StoredSegments = %d, want 1", v.StoredSegments())
	}
	if len(v.profiles) != 1 {
		t.Errorf("retained profiles = %d, want 1", len(v.profiles))
	}
	if _, ok := v.Secret(actual.ID()); !ok {
		t.Error("vehicle should retain the segment secret")
	}
}

func TestGuardsCreatedForNeighbors(t *testing.T) {
	a := testVehicle(t, "guards-a")
	b := testVehicle(t, "guards-b")
	city := guardCity(t)
	if err := a.BeginMinute(0); err != nil {
		t.Fatal(err)
	}
	if err := b.BeginMinute(0); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 60; s++ {
		da, err := a.Tick(geo.Pt(float64(s)*10, 0))
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Tick(geo.Pt(float64(s)*10, 30))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Hear(db, int64(s)); err != nil {
			t.Fatal(err)
		}
		if err := b.Hear(da, int64(s)); err != nil {
			t.Fatal(err)
		}
	}
	actual, guards, err := a.EndMinute(city.Net)
	if err != nil {
		t.Fatal(err)
	}
	// One neighbor, alpha=0.1 -> ceil(0.1*1) = 1 guard.
	if len(guards) != 1 {
		t.Fatalf("guards = %d, want 1", len(guards))
	}
	g := guards[0]
	if err := g.Validate(); err != nil {
		t.Errorf("guard must be structurally indistinguishable: %v", err)
	}
	// Guard starts at the neighbor's initial location, ends at a's
	// final position.
	if d := g.InitialLocation().Dist(geo.Pt(10, 30)); d > 30 {
		t.Errorf("guard starts %v m from neighbor's initial location", d)
	}
	if d := g.FinalLocation().Dist(actual.FinalLocation()); d > 30 {
		t.Errorf("guard ends %v m from the vehicle's final position", d)
	}
	// Uploads: actual + guard queued; queue drains once.
	ups := a.PendingUploads()
	if len(ups) != 2 {
		t.Fatalf("pending uploads = %d, want 2", len(ups))
	}
	if len(a.PendingUploads()) != 0 {
		t.Error("upload queue should drain")
	}
}

func TestMatchSolicitations(t *testing.T) {
	v := testVehicle(t, "match")
	recordMinute(t, v, 0, 0)
	actual, _, err := v.EndMinute(nil)
	if err != nil {
		t.Fatal(err)
	}
	id := actual.ID()
	// Solicited list containing our VP and an unknown one.
	var unknown vd.VPID
	unknown[0] = 0xFF
	matches := v.MatchSolicitations([]vd.VPID{id, unknown})
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	chunks, ok := matches[id]
	if !ok || len(chunks) != 60 {
		t.Fatalf("expected 60 chunks for own VP")
	}
	// The chunks replay cleanly against the VP's cascade.
	if err := vd.Replay(id, actual.VDs, chunks); err != nil {
		t.Errorf("matched video should validate: %v", err)
	}
}

func TestSecretsPerSegmentDiffer(t *testing.T) {
	v := testVehicle(t, "secrets")
	recordMinute(t, v, 0, 0)
	p1, _, err := v.EndMinute(nil)
	if err != nil {
		t.Fatal(err)
	}
	recordMinute(t, v, 60, 0)
	p2, _, err := v.EndMinute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID() == p2.ID() {
		t.Error("each minute must have a fresh VP identifier")
	}
	q1, _ := v.Secret(p1.ID())
	q2, _ := v.Secret(p2.ID())
	if q1 == q2 {
		t.Error("segment secrets must differ")
	}
	if !p1.ID().Matches(q1) || !p2.ID().Matches(q2) {
		t.Error("secrets must prove ownership of their identifiers")
	}
}

func TestNewAPIValidation(t *testing.T) {
	if _, err := NewAPI("", nil); err == nil {
		t.Error("empty base URL should fail")
	}
	if _, err := NewAPI("http://localhost:1", nil); err != nil {
		t.Errorf("valid URL should construct: %v", err)
	}
}
