package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewmap/internal/geo"
)

func mustGrid(t testing.TB, cfg GridConfig) *City {
	t.Helper()
	c, err := BuildGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildGridCounts(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 5, Rows: 4, Spacing: 100, BuildingFill: 0.8})
	if got := c.Net.NumNodes(); got != 20 {
		t.Errorf("NumNodes = %d, want 20", got)
	}
	// Directed edges: horizontal 4*4=16 streets, vertical 5*3=15 streets,
	// each bidirectional.
	if got := c.Net.NumEdges(); got != 2*(16+15) {
		t.Errorf("NumEdges = %d, want %d", got, 2*(16+15))
	}
	// Interior blocks: (5-1)*(4-1) = 12 buildings.
	if got := c.Obstacles.Len(); got != 12 {
		t.Errorf("Obstacles = %d, want 12", got)
	}
	if c.Cols() != 5 || c.Rows() != 4 {
		t.Errorf("Cols/Rows = %d/%d, want 5/4", c.Cols(), c.Rows())
	}
}

func TestBuildGridValidation(t *testing.T) {
	cases := []GridConfig{
		{Cols: 1, Rows: 5, Spacing: 100},
		{Cols: 5, Rows: 1, Spacing: 100},
		{Cols: 5, Rows: 5, Spacing: 0},
		{Cols: 5, Rows: 5, Spacing: 100, BuildingFill: 1.5},
		{Cols: 5, Rows: 5, Spacing: 100, BuildingFill: -0.1},
	}
	for _, cfg := range cases {
		if _, err := BuildGrid(cfg); err == nil {
			t.Errorf("BuildGrid(%+v) should fail", cfg)
		}
	}
}

func TestOpenRoadHasNoObstacles(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 3, Rows: 3, Spacing: 200, BuildingFill: 0})
	if c.Obstacles.Len() != 0 {
		t.Errorf("open road should have no buildings, got %d", c.Obstacles.Len())
	}
}

func TestBuildingsBlockCrossBlockSight(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 3, Rows: 3, Spacing: 100, BuildingFill: 0.9})
	// Two points on parallel streets with a building between them.
	a := geo.Pt(50, 0)   // mid south street
	b := geo.Pt(50, 100) // mid next street north
	if c.Obstacles.LOS(a, b) {
		t.Error("building should block sight across the block")
	}
	// Along the same street: clear.
	if !c.Obstacles.LOS(geo.Pt(0, 0), geo.Pt(200, 0)) {
		t.Error("sight along a street should be clear")
	}
}

func TestShortestPathStraightLine(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 4, Rows: 4, Spacing: 100})
	a := c.nodeAt[0][0]
	b := c.nodeAt[3][0]
	path, err := c.Net.ShortestPath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("path length = %d nodes, want 4", len(path))
	}
	if path[0] != a || path[len(path)-1] != b {
		t.Error("path endpoints wrong")
	}
}

func TestShortestPathManhattanDistance(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 6, Rows: 6, Spacing: 150})
	a := c.nodeAt[0][0]
	b := c.nodeAt[5][5]
	path, err := c.Net.ShortestPath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var length float64
	for i := 1; i < len(path); i++ {
		length += c.Net.Node(path[i-1]).Pos.Dist(c.Net.Node(path[i]).Pos)
	}
	want := 10 * 150.0 // Manhattan distance on the grid
	if math.Abs(length-want) > 1e-9 {
		t.Errorf("path length = %v, want %v", length, want)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 3, Rows: 3, Spacing: 100})
	path, err := c.Net.ShortestPath(c.nodeAt[1][1], c.nodeAt[1][1])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 {
		t.Errorf("path to self should have 1 node, got %d", len(path))
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	net := &Network{}
	a := net.AddNode(geo.Pt(0, 0))
	b := net.AddNode(geo.Pt(100, 0))
	if _, err := net.ShortestPath(a, b); err != ErrNoRoute {
		t.Errorf("disconnected nodes should return ErrNoRoute, got %v", err)
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	net := &Network{}
	net.AddNode(geo.Pt(0, 0))
	if _, err := net.ShortestPath(0, 99); err == nil {
		t.Error("out-of-range node should error")
	}
	if _, err := net.ShortestPath(-1, 0); err == nil {
		t.Error("negative node should error")
	}
}

func TestNearestNode(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 3, Rows: 3, Spacing: 100})
	id := c.Net.NearestNode(geo.Pt(95, 10))
	if got := c.Net.Node(id).Pos; got != geo.Pt(100, 0) {
		t.Errorf("NearestNode = %v, want (100,0)", got)
	}
}

func TestDirections(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 5, Rows: 5, Spacing: 100})
	r, err := c.Net.Directions(geo.Pt(10, 10), geo.Pt(390, 390))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("route should pass through intersections, got %d points", len(r.Points))
	}
	if r.Points[0] != geo.Pt(10, 10) || r.Points[len(r.Points)-1] != geo.Pt(390, 390) {
		t.Error("route must start and end at the requested points")
	}
	if r.Length <= 0 {
		t.Error("route length must be positive")
	}
}

func TestDirectionsSameSnap(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 3, Rows: 3, Spacing: 1000})
	r, err := c.Net.Directions(geo.Pt(10, 10), geo.Pt(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Errorf("trivial route should be 2 points, got %d", len(r.Points))
	}
}

func TestRouteAt(t *testing.T) {
	r := Route{Points: []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 100)}, Length: 200}
	if got := r.At(-5); got != geo.Pt(0, 0) {
		t.Errorf("At(-5) = %v, want origin", got)
	}
	if got := r.At(50); got != geo.Pt(50, 0) {
		t.Errorf("At(50) = %v, want (50,0)", got)
	}
	if got := r.At(150); got != geo.Pt(100, 50) {
		t.Errorf("At(150) = %v, want (100,50)", got)
	}
	if got := r.At(1e9); got != geo.Pt(100, 100) {
		t.Errorf("At(inf) = %v, want end", got)
	}
	var empty Route
	if got := empty.At(10); got != (geo.Point{}) {
		t.Errorf("empty route At = %v", got)
	}
}

func TestSamplePerSecond(t *testing.T) {
	r := Route{Points: []geo.Point{geo.Pt(0, 0), geo.Pt(600, 0)}, Length: 600}
	samples := r.SamplePerSecond(10, 60, nil)
	if len(samples) != 60 {
		t.Fatalf("samples = %d, want 60", len(samples))
	}
	if samples[0] != geo.Pt(0, 0) {
		t.Errorf("sample[0] = %v, want origin", samples[0])
	}
	if samples[30] != geo.Pt(300, 0) {
		t.Errorf("sample[30] = %v, want (300,0)", samples[30])
	}
	// Past the end of the route the vehicle stays put.
	long := r.SamplePerSecond(20, 60, nil)
	if long[59] != geo.Pt(600, 0) {
		t.Errorf("exhausted route should repeat final point, got %v", long[59])
	}
}

func TestSamplePerSecondJitter(t *testing.T) {
	r := Route{Points: []geo.Point{geo.Pt(0, 0), geo.Pt(600, 0)}, Length: 600}
	rng := rand.New(rand.NewSource(1))
	jit := func(i int) float64 { return rng.Float64()*10 - 5 }
	samples := r.SamplePerSecond(10, 30, jit)
	// Jittered samples stay near the nominal positions but are not all
	// exactly on them.
	moved := false
	for i, s := range samples {
		nominal := geo.Pt(10*float64(i), 0)
		if s.Dist(nominal) > 5+1e-9 {
			t.Fatalf("jitter exceeded margin at %d: %v vs %v", i, s, nominal)
		}
		if s != nominal {
			moved = true
		}
	}
	if !moved {
		t.Error("jitter should displace at least one sample")
	}
	if got := r.SamplePerSecond(10, 0, nil); got != nil {
		t.Error("zero seconds should return nil")
	}
}

// Property: a shortest path between random grid intersections never
// exceeds the Manhattan distance (which is exactly achievable on a full
// grid) and never undercuts the Euclidean distance.
func TestShortestPathBoundsProperty(t *testing.T) {
	c := mustGrid(t, GridConfig{Cols: 8, Rows: 8, Spacing: 100})
	f := func(ac, ar, bc, br uint8) bool {
		a := c.nodeAt[int(ac%8)][int(ar%8)]
		b := c.nodeAt[int(bc%8)][int(br%8)]
		path, err := c.Net.ShortestPath(a, b)
		if err != nil {
			return false
		}
		var length float64
		for i := 1; i < len(path); i++ {
			length += c.Net.Node(path[i-1]).Pos.Dist(c.Net.Node(path[i]).Pos)
		}
		pa, pb := c.Net.Node(a).Pos, c.Net.Node(b).Pos
		manhattan := math.Abs(pa.X-pb.X) + math.Abs(pa.Y-pb.Y)
		euclid := pa.Dist(pb)
		return length <= manhattan+1e-9 && length >= euclid-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	c := mustGrid(b, GridConfig{Cols: 40, Rows: 40, Spacing: 200})
	a := c.nodeAt[0][0]
	z := c.nodeAt[39][39]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Net.ShortestPath(a, z); err != nil {
			b.Fatal(err)
		}
	}
}
