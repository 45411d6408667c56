// Package client implements the vehicle side of ViewMap: the
// ViewMap-enabled dashcam loop (record, broadcast and collect view
// digests, build actual and guard VPs) and the anonymous HTTP client
// that talks to the system service (upload VPs, answer solicitations,
// withdraw untraceable rewards).
package client

import (
	"errors"
	"fmt"
	"math/rand"

	"viewmap/internal/geo"
	"viewmap/internal/roadnet"
	"viewmap/internal/vd"
	"viewmap/internal/video"
	"viewmap/internal/vp"
)

// VehicleConfig parameterizes a vehicle.
type VehicleConfig struct {
	// Name seeds the synthetic camera stream.
	Name string
	// BytesPerSecond is the recording bitrate; zero selects the
	// dashcam-typical 50 MB/min.
	BytesPerSecond int
	// StorageBytes is the SD card size; zero selects 4 GB.
	StorageBytes int64
	// Alpha is the guard-VP fraction; zero selects the paper's 0.1.
	Alpha float64
	// DSRCRangeM bounds neighbor VD acceptance; zero selects 400 m.
	DSRCRangeM float64
	// Seed drives guard selection and trajectory jitter.
	Seed int64
	// Source overrides the camera content generator; nil selects a
	// pseudorandom video.SyntheticSource keyed by Name. Evidence tests
	// and simulations install a blur.CameraSource here so released
	// videos contain blurrable plates.
	Source video.ChunkSource
}

// Vehicle is one ViewMap-enabled dashcam.
type Vehicle struct {
	cfg     VehicleConfig
	src     video.ChunkSource
	storage *video.Storage
	rng     *rand.Rand

	// Current minute state.
	builder   *vp.Builder
	segment   *video.Segment
	curSecret vd.Secret
	second    int

	// Completed state.
	secrets  map[vd.VPID]vd.Secret
	profiles map[vd.VPID]*vp.Profile // actual profiles (kept)
	pending  []*vp.Profile           // actual + guard VPs awaiting upload
	guardIDs map[vd.VPID]bool        // guards to delete after upload
}

// NewVehicle creates a vehicle.
func NewVehicle(cfg VehicleConfig) (*Vehicle, error) {
	if cfg.Name == "" {
		return nil, errors.New("client: vehicle needs a name")
	}
	if cfg.BytesPerSecond == 0 {
		cfg.BytesPerSecond = video.DefaultBytesPerSecond
	}
	if cfg.StorageBytes == 0 {
		cfg.StorageBytes = 4 << 30
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.DSRCRangeM == 0 {
		cfg.DSRCRangeM = 400
	}
	src := cfg.Source
	if src == nil {
		s, err := video.NewSyntheticSource(cfg.Name, cfg.BytesPerSecond)
		if err != nil {
			return nil, err
		}
		src = s
	}
	st, err := video.NewStorage(cfg.StorageBytes)
	if err != nil {
		return nil, err
	}
	return &Vehicle{
		cfg:      cfg,
		src:      src,
		storage:  st,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		secrets:  make(map[vd.VPID]vd.Secret),
		profiles: make(map[vd.VPID]*vp.Profile),
		guardIDs: make(map[vd.VPID]bool),
	}, nil
}

// BeginMinute starts recording a new segment at the minute-aligned
// time, drawing a fresh secret for the segment's VP identifier.
func (v *Vehicle) BeginMinute(startUnix int64) error {
	if v.builder != nil {
		return errors.New("client: previous minute not finished")
	}
	q, err := vd.NewSecret()
	if err != nil {
		return err
	}
	r := vd.DeriveVPID(q)
	b, err := vp.NewBuilder(r, startUnix, 0, v.cfg.DSRCRangeM)
	if err != nil {
		return err
	}
	seg, err := video.NewSegment(startUnix)
	if err != nil {
		return err
	}
	v.builder = b
	v.segment = seg
	v.curSecret = q
	v.second = 0
	return nil
}

// Tick records the next second at the given location and returns the
// view digest to broadcast over DSRC.
func (v *Vehicle) Tick(loc geo.Point) (vd.VD, error) {
	if v.builder == nil {
		return vd.VD{}, errors.New("client: BeginMinute first")
	}
	v.second++
	chunk := v.src.SecondChunk(v.segment.StartUnix, v.second)
	if _, err := v.segment.AppendSecond(chunk); err != nil {
		return vd.VD{}, err
	}
	return v.builder.RecordSecond(loc, chunk)
}

// Hear ingests a neighbor's broadcast VD at the current time. Errors
// from range validation or the neighbor cap are reported but benign.
func (v *Vehicle) Hear(d vd.VD, nowUnix int64) error {
	if v.builder == nil {
		return errors.New("client: not recording")
	}
	return v.builder.AcceptNeighborVD(d, nowUnix)
}

// EndMinute finalizes the segment: the actual VP is compiled and
// queued for upload alongside freshly fabricated guard VPs (one per
// selected neighbor, routed over the road network), and the video is
// stored on the SD ring.
func (v *Vehicle) EndMinute(net *roadnet.Network) (*vp.Profile, []*vp.Profile, error) {
	if v.builder == nil {
		return nil, nil, errors.New("client: not recording")
	}
	if !v.segment.Complete() {
		return nil, nil, fmt.Errorf("client: minute has only %d seconds", v.segment.Seconds())
	}
	actual, err := v.builder.Finalize()
	if err != nil {
		return nil, nil, err
	}

	var guards []*vp.Profile
	if net != nil {
		targets := vp.SelectGuardTargets(v.builder.NeighborIDs(), v.cfg.Alpha, v.rng)
		ownLast, _ := v.builder.LastLocation()
		for _, id := range targets {
			l1, ok := v.builder.NeighborInitialLocation(id)
			if !ok {
				continue
			}
			g, err := vp.BuildGuard(net, l1, ownLast, v.segment.StartUnix, vp.GuardConfig{JitterM: 5}, v.rng)
			if err != nil {
				continue // unroutable neighbor start: skip this guard
			}
			if err := vp.LinkMutually(actual, g); err != nil {
				return nil, nil, err
			}
			guards = append(guards, g)
			v.guardIDs[g.ID()] = true
		}
	}

	if _, err := v.storage.Store(v.segment); err != nil {
		return nil, nil, err
	}
	id := actual.ID()
	v.secrets[id] = v.curSecret
	v.profiles[id] = actual
	v.pending = append(v.pending, actual)
	v.pending = append(v.pending, guards...)

	v.builder = nil
	v.segment = nil
	return actual, guards, nil
}

// PendingUploads returns the queued VPs (actual and guard,
// indistinguishable) and clears the queue; the caller uploads them
// anonymously. Guard profiles are deleted from vehicle state, as the
// protocol requires.
func (v *Vehicle) PendingUploads() []*vp.Profile {
	out := v.pending
	v.pending = nil
	for _, p := range out {
		if v.guardIDs[p.ID()] {
			delete(v.guardIDs, p.ID())
		}
	}
	return out
}

// MatchSolicitations returns, for each solicited identifier this
// vehicle owns a video for, the identifier with its per-second chunks
// ready for upload. Guard VPs never match: their videos don't exist
// and their identifiers' secrets were discarded.
func (v *Vehicle) MatchSolicitations(ids []vd.VPID) map[vd.VPID][][]byte {
	out := make(map[vd.VPID][][]byte)
	for _, id := range ids {
		p, ok := v.profiles[id]
		if !ok {
			continue
		}
		seg := v.storage.Find(p.StartUnix())
		if seg == nil {
			continue // recorded over
		}
		chunks := make([][]byte, seg.Seconds())
		for i := 1; i <= seg.Seconds(); i++ {
			c, err := seg.Chunk(i)
			if err != nil {
				return nil
			}
			chunks[i-1] = c
		}
		out[id] = chunks
	}
	return out
}

// Secret returns the ownership secret for one of the vehicle's VPs.
func (v *Vehicle) Secret(id vd.VPID) (vd.Secret, bool) {
	q, ok := v.secrets[id]
	return q, ok
}

// StoredSegments returns the number of videos on the SD ring.
func (v *Vehicle) StoredSegments() int { return v.storage.Len() }
