package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/mobility"
	"viewmap/internal/roadnet"
	"viewmap/internal/tracker"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// CityConfig parameterizes a trace-driven city simulation in the style
// of the paper's Section 8 setup (SUMO traces of 1000 vehicles on an
// 8x8 km street map of Seoul).
type CityConfig struct {
	// Vehicles is the fleet size.
	Vehicles int
	// Minutes is the simulated duration.
	Minutes int
	// BlocksX and BlocksY are the street-grid dimensions; spacing
	// below sets the block edge. Zero selects 20x20.
	BlocksX, BlocksY int
	// SpacingM is the street spacing; zero selects 200 m.
	SpacingM float64
	// BuildingFill is the block fraction occupied by buildings; zero
	// selects 0.7.
	BuildingFill float64
	// MeanSpeedKmh and MixSpeeds follow mobility.Config.
	MeanSpeedKmh float64
	MixSpeeds    bool
	// Alpha is the guard-VP fraction; zero selects 0.1.
	Alpha float64
	// DSRCRangeM is the link radius; zero selects 400 m.
	DSRCRangeM float64
	// OriginX and OriginY place the city's lower-left corner; zero
	// keeps the grid at the coordinate origin. Multi-city scenarios
	// offset each city so their footprints — and investigation sites —
	// stay disjoint while sharing one minute-sharded store.
	OriginX, OriginY float64
	// Seed drives everything.
	Seed int64
}

func (c CityConfig) withDefaults() CityConfig {
	if c.BlocksX == 0 {
		c.BlocksX = 20
	}
	if c.BlocksY == 0 {
		c.BlocksY = 20
	}
	if c.SpacingM == 0 {
		c.SpacingM = 200
	}
	if c.BuildingFill == 0 {
		c.BuildingFill = 0.7
	}
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.DSRCRangeM == 0 {
		c.DSRCRangeM = 400
	}
	if c.MeanSpeedKmh == 0 && !c.MixSpeeds {
		c.MeanSpeedKmh = 50
	}
	return c
}

// CityRun holds a generated city and fleet trace.
type CityRun struct {
	Cfg   CityConfig
	City  *roadnet.City
	Index *geo.IndexedObstacles
	Trace *mobility.Trace
	rng   *rand.Rand
}

// NewCityRun builds the city and drives the fleet.
func NewCityRun(cfg CityConfig) (*CityRun, error) {
	cfg = cfg.withDefaults()
	if cfg.Vehicles <= 0 || cfg.Minutes <= 0 {
		return nil, fmt.Errorf("sim: need positive vehicles and minutes (%d, %d)", cfg.Vehicles, cfg.Minutes)
	}
	city, err := roadnet.BuildGrid(roadnet.GridConfig{
		Cols: cfg.BlocksX + 1, Rows: cfg.BlocksY + 1,
		Spacing: cfg.SpacingM, BuildingFill: cfg.BuildingFill,
		Origin: geo.Pt(cfg.OriginX, cfg.OriginY),
	})
	if err != nil {
		return nil, err
	}
	// Mirror the city's buildings into a spatial index for the massive
	// LOS query load.
	ix := geo.NewIndexedObstacles(cfg.SpacingM)
	half := cfg.SpacingM / 2 * cfg.BuildingFill
	for cx := 0; cx < cfg.BlocksX; cx++ {
		for cy := 0; cy < cfg.BlocksY; cy++ {
			center := geo.Pt(
				cfg.OriginX+float64(cx)*cfg.SpacingM+cfg.SpacingM/2,
				cfg.OriginY+float64(cy)*cfg.SpacingM+cfg.SpacingM/2)
			ix.AddBuilding(geo.RectAround(center, half))
		}
	}
	trace, err := mobility.Generate(city, mobility.Config{
		Vehicles: cfg.Vehicles, Seconds: cfg.Minutes * vd.SegmentSeconds,
		MeanSpeedKmh: cfg.MeanSpeedKmh, MixSpeeds: cfg.MixSpeeds, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &CityRun{
		Cfg: cfg, City: city, Index: ix, Trace: trace,
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}, nil
}

// Area returns the city's footprint rectangle (origin to the far
// street corner).
func (cr *CityRun) Area() geo.Rect {
	return geo.NewRect(
		geo.Pt(cr.Cfg.OriginX, cr.Cfg.OriginY),
		geo.Pt(cr.Cfg.OriginX+float64(cr.Cfg.BlocksX)*cr.Cfg.SpacingM,
			cr.Cfg.OriginY+float64(cr.Cfg.BlocksY)*cr.Cfg.SpacingM))
}

// neighborPairs returns, for minute m, the unordered vehicle pairs
// whose trajectories were within DSRC range AND line of sight for at
// least two aligned seconds — the condition under which both sides
// hold two element VDs of each other and a viewlink forms. It uses
// per-second grid bucketing to avoid the O(n^2) scan.
func (cr *CityRun) neighborPairs(m int) map[[2]int]int {
	counts := make(map[[2]int]int)
	base := m * vd.SegmentSeconds
	cell := cr.Cfg.DSRCRangeM
	for s := 0; s < vd.SegmentSeconds; s++ {
		t := base + s
		grid := make(map[[2]int][]int)
		for v := 0; v < cr.Trace.NumVehicles(); v++ {
			p := cr.Trace.Positions[v][t]
			grid[[2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}] = append(
				grid[[2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}], v)
		}
		range2 := cr.Cfg.DSRCRangeM * cr.Cfg.DSRCRangeM
		check := func(a, b int) {
			pa, pb := cr.Trace.Positions[a][t], cr.Trace.Positions[b][t]
			if pa.Dist2(pb) > range2 || !cr.Index.LOS(pa, pb) {
				return
			}
			k := [2]int{a, b}
			if a > b {
				k = [2]int{b, a}
			}
			counts[k]++
		}
		for key, bucket := range grid {
			// In-cell pairs once, then the four forward neighbor cells
			// so every cross-cell pair is visited exactly once.
			for i := 0; i < len(bucket); i++ {
				for j := i + 1; j < len(bucket); j++ {
					check(bucket[i], bucket[j])
				}
			}
			for _, d := range [...][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}} {
				for _, a := range bucket {
					for _, b := range grid[[2]int{key[0] + d[0], key[1] + d[1]}] {
						check(a, b)
					}
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

// MinuteProfiles is the VP population of one simulated minute.
type MinuteProfiles struct {
	// Profiles holds actual VPs (index < NumVehicles aligns with
	// vehicle ids) followed by guard VPs.
	Profiles []*vp.Profile
	// Owner maps VP identifier to vehicle id; guards map to -1.
	Owner map[vd.VPID]int
	// Guards counts the guard VPs appended after the actual ones.
	Guards int
	// Pairs is the viewlinked vehicle-pair set with contact seconds.
	Pairs map[[2]int]int
}

// ProfilesForMinute fabricates the minute's VP population: one actual
// VP per vehicle, viewlinks for every qualifying pair, and (optionally)
// guard VPs with mutual links per the paper's alpha policy.
func (cr *CityRun) ProfilesForMinute(m int, withGuards bool) (*MinuteProfiles, error) {
	if m < 0 || m >= cr.Cfg.Minutes {
		return nil, fmt.Errorf("sim: minute %d outside run of %d", m, cr.Cfg.Minutes)
	}
	base := m * vd.SegmentSeconds
	n := cr.Trace.NumVehicles()
	out := &MinuteProfiles{Owner: make(map[vd.VPID]int)}
	for v := 0; v < n; v++ {
		track := cr.Trace.Positions[v][base : base+vd.SegmentSeconds]
		p, err := core.FabricateProfile(track, int64(m), 0, cr.rng)
		if err != nil {
			return nil, err
		}
		out.Profiles = append(out.Profiles, p)
		out.Owner[p.ID()] = v
	}
	out.Pairs = cr.neighborPairs(m)
	keys, neighborsOf := sortedPairs(out.Pairs)
	for _, k := range keys {
		if err := vp.LinkMutually(out.Profiles[k[0]], out.Profiles[k[1]]); err != nil {
			return nil, err
		}
	}
	if withGuards {
		for v := 0; v < n; v++ {
			nbrs := neighborsOf[v]
			if len(nbrs) == 0 {
				continue
			}
			count := int(math.Ceil(cr.Cfg.Alpha * float64(len(nbrs))))
			perm := cr.rng.Perm(len(nbrs))
			ownEnd := cr.Trace.Positions[v][base+vd.SegmentSeconds-1]
			for _, pi := range perm[:count] {
				u := nbrs[pi]
				l1 := cr.Trace.Positions[u][base]
				g, err := vp.BuildGuard(cr.City.Net, l1, ownEnd, int64(m)*vd.SegmentSeconds, vp.GuardConfig{JitterM: 5}, cr.rng)
				if err != nil {
					continue
				}
				if err := vp.LinkMutually(out.Profiles[v], g); err != nil {
					return nil, err
				}
				out.Profiles = append(out.Profiles, g)
				out.Owner[g.ID()] = -1
				out.Guards++
			}
		}
	}
	return out, nil
}

// sortedPairs returns the pair set's keys in ascending order, and each
// vehicle's partners in that order. Both guard-sampling paths draw
// neighbours by index (cr.rng.Perm), so the lists they draw from must
// not inherit map iteration order, or same-seed runs diverge.
func sortedPairs(pairs map[[2]int]int) ([][2]int, map[int][]int) {
	keys := make([][2]int, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	neighborsOf := make(map[int][]int)
	for _, k := range keys {
		neighborsOf[k[0]] = append(neighborsOf[k[0]], k[1])
		neighborsOf[k[1]] = append(neighborsOf[k[1]], k[0])
	}
	return keys, neighborsOf
}

// TrackingDataset derives the tracker's view of the whole run:
// per-minute anonymous observations of actual VPs (and guard VPs when
// withGuards is set), without fabricating full profiles.
func (cr *CityRun) TrackingDataset(withGuards bool) (*tracker.Dataset, error) {
	ds, err := tracker.NewDataset(cr.Cfg.Minutes, cr.Trace.NumVehicles())
	if err != nil {
		return nil, err
	}
	for m := 0; m < cr.Cfg.Minutes; m++ {
		base := m * vd.SegmentSeconds
		last := base + vd.SegmentSeconds - 1
		for v := 0; v < cr.Trace.NumVehicles(); v++ {
			if err := ds.Add(tracker.Observation{
				Start:  cr.Trace.Positions[v][base],
				End:    cr.Trace.Positions[v][last],
				Minute: int64(m),
				Owner:  v,
			}); err != nil {
				return nil, err
			}
		}
		if !withGuards {
			continue
		}
		_, neighborsOf := sortedPairs(cr.neighborPairs(m))
		for v := 0; v < cr.Trace.NumVehicles(); v++ {
			nbrs := neighborsOf[v]
			if len(nbrs) == 0 {
				continue
			}
			count := int(math.Ceil(cr.Cfg.Alpha * float64(len(nbrs))))
			perm := cr.rng.Perm(len(nbrs))
			for _, pi := range perm[:count] {
				u := nbrs[pi]
				if err := ds.Add(tracker.Observation{
					Start:  cr.Trace.Positions[u][base],
					End:    cr.Trace.Positions[v][last],
					Minute: int64(m),
					Owner:  -1,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	return ds, nil
}

// ContactIntervals returns the LOS contact interval lengths across the
// run (Fig. 22c), using per-second bucketing.
func (cr *CityRun) ContactIntervals() []int {
	run := make(map[[2]int]int)
	var intervals []int
	total := cr.Cfg.Minutes * vd.SegmentSeconds
	cell := cr.Cfg.DSRCRangeM
	for t := 0; t < total; t++ {
		grid := make(map[[2]int][]int)
		for v := 0; v < cr.Trace.NumVehicles(); v++ {
			p := cr.Trace.Positions[v][t]
			key := [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
			grid[key] = append(grid[key], v)
		}
		inContact := make(map[[2]int]bool)
		for key, bucket := range grid {
			for i := 0; i < len(bucket); i++ {
				for j := i + 1; j < len(bucket); j++ {
					cr.checkContact(bucket[i], bucket[j], t, inContact)
				}
			}
			for _, d := range [...][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}} {
				for _, a := range bucket {
					for _, b := range grid[[2]int{key[0] + d[0], key[1] + d[1]}] {
						cr.checkContact(a, b, t, inContact)
					}
				}
			}
		}
		// Extend or close runs.
		for k := range inContact {
			run[k]++
		}
		for k, length := range run {
			if !inContact[k] {
				intervals = append(intervals, length)
				delete(run, k)
			}
		}
	}
	for _, length := range run {
		intervals = append(intervals, length)
	}
	return intervals
}

func (cr *CityRun) checkContact(a, b, t int, inContact map[[2]int]bool) {
	if a == b {
		return
	}
	pa, pb := cr.Trace.Positions[a][t], cr.Trace.Positions[b][t]
	if pa.Dist2(pb) > cr.Cfg.DSRCRangeM*cr.Cfg.DSRCRangeM || !cr.Index.LOS(pa, pb) {
		return
	}
	k := [2]int{a, b}
	if a > b {
		k = [2]int{b, a}
	}
	inContact[k] = true
}
