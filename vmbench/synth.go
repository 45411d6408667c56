package main

import (
	"math"
	"math/rand"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// synthSpeed is the synthetic fleet's speed (about 50 km/h).
const synthSpeed = 14.0

// synthMinute fabricates n honestly linked profiles for one minute.
// Start points are stratified — one vehicle per cell of a near-square
// grid over the area, at a seeded offset and heading — so the viewlink
// density, and with it the per-minute work, varies little from seed to
// seed while every trajectory still does.
func synthMinute(n int, area geo.Rect, minute, seed int64) ([]*vp.Profile, error) {
	rng := rand.New(rand.NewSource(seed))
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw, ch := area.Width()/float64(cols), area.Height()/float64(rows)
	profiles := make([]*vp.Profile, 0, n)
	for i := 0; i < n; i++ {
		start := geo.Pt(
			area.Min.X+(float64(i%cols)+rng.Float64())*cw,
			area.Min.Y+(float64(i/cols)+rng.Float64())*ch,
		)
		p, err := core.FabricateProfile(driveFrom(start, area, rng.Float64()*2*math.Pi), minute, 0, rng)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	if err := core.LinkByProximity(profiles, core.DefaultDSRCRange); err != nil {
		return nil, err
	}
	return profiles, nil
}

// driveFrom returns a one-minute straight drive from p at heading
// theta, reflecting off the area boundary.
func driveFrom(p geo.Point, area geo.Rect, theta float64) []geo.Point {
	dx, dy := math.Cos(theta)*synthSpeed, math.Sin(theta)*synthSpeed
	track := make([]geo.Point, vd.SegmentSeconds)
	for i := range track {
		track[i] = p
		if np := p.Add(geo.Pt(dx, dy)); np.X < area.Min.X || np.X > area.Max.X {
			dx = -dx
		}
		if np := p.Add(geo.Pt(dx, dy)); np.Y < area.Min.Y || np.Y > area.Max.Y {
			dy = -dy
		}
		p = p.Add(geo.Pt(dx, dy))
	}
	return track
}
