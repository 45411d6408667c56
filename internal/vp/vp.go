// Package vp implements ViewMap's view profiles (VPs): the compact,
// anonymized stand-ins for 1-minute dashcam videos that the system
// stores, searches, verifies and rewards instead of the videos
// themselves (Sections 4-5 of the paper).
//
// A VP compiles the segment's sixty view digests (VDs) with a Bloom
// filter summarizing the VDs received from line-of-sight neighbors
// (at most two per neighbor: the first and last heard with the same VP
// identifier). Two VPs are mutual neighbors — connected by a "viewlink"
// — when their trajectories came within DSRC range at some aligned
// second AND each VP's filter contains at least one of the other's
// element VDs.
//
// The package also builds guard VPs (Section 5.1.2): fabricated but
// plausible trajectories from a neighbor's initial position to the
// vehicle's own final position, routed over the road network (the
// paper uses the Google Directions API; we use shortest-path routing
// on the same street graph). Guard VPs are indistinguishable from
// actual VPs on the wire, carry random hash fields, and are mutually
// linked into the real VP's Bloom filter to create path confusion.
package vp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"viewmap/internal/bloom"
	"viewmap/internal/geo"
	"viewmap/internal/roadnet"
	"viewmap/internal/vd"
)

// FilterBits is the VP Bloom filter size. The paper selects 2048 bits
// (Section 6.3.2), but the linkage test must probe all sixty of the
// counterpart's VDs per direction (the verifier cannot know which two
// the neighbor stored), which inflates the effective false-linkage
// rate far beyond the paper's single-query closed form — enough that
// fake-VP layers acquire spurious viewlinks at city densities and
// verification accuracy collapses. We therefore use 4096 bits, the
// largest size the paper itself evaluates in Fig. 14, which together
// with the two-hit rule in MutualNeighbors drives false linkage back
// below one in ~10^7 pair checks at typical neighbor loads. The
// deviation (VP grows from 4584 to 4840 bytes, still < 0.01% of the
// video) is documented in EXPERIMENTS.md.
const FilterBits = 2 * bloom.DefaultBits

// MaxNeighbors is the cap on accepted neighbor VPs per vehicle, the
// paper's mitigation against Bloom-poisoning attacks ("we set the
// maximum number of neighbor VPs accepted at each vehicle as 250").
const MaxNeighbors = 250

// filterK is the Bloom hash count, optimal (k = (m/n) ln 2) for the
// typical urban load of roughly 350 element VDs per minute.
var filterK = bloom.OptimalK(FilterBits, 350)

// StorageBytes follows the paper's per-VP storage accounting (Section
// 6.1): sixty 72-byte VDs, the filter bit-array, one 8-byte secret.
// With our 512-byte filter this is 4840 bytes (the paper's 256-byte
// filter gave 4584), still below 0.01% of the 50 MB video.
const StorageBytes = vd.SegmentSeconds*vd.WireSize + FilterBits/8 + 8

// Profile is one view profile.
type Profile struct {
	// VDs are the sixty per-second digests, in sequence order.
	VDs []vd.VD
	// Neighbors is the Bloom filter N_u over neighbor VDs.
	Neighbors *bloom.Filter
	// Trusted marks special VPs from authorities (police cars). The
	// flag is assigned by the system when ingesting authority uploads,
	// never carried on the anonymous wire format.
	Trusted bool

	// digestOnce/vdDigests cache the Bloom double-hash pair of each
	// VD's wire key. Viewmap construction probes every VD of every
	// candidate pair; without the cache each probe would rehash the
	// same 72 bytes.
	digestOnce sync.Once
	vdDigests  [][2]uint32

	// edgeOnce/edgeDigests cache just the first and last VDs' digest
	// pairs. Honest viewlinks store exactly a neighbor's first and last
	// heard VDs, so the linkage fast path resolves with these two alone
	// — deriving all sixty (60 SHA-256 per profile, half the per-VP
	// ingest budget on one core) is deferred until a probe actually
	// needs the interior.
	edgeOnce    sync.Once
	edgeDigests [2][2]uint32
}

// Digests returns the cached Bloom digests of the profile's VDs,
// computing them on first use, so no pair test re-derives the 16-byte
// digest pairs: MutualNeighbors reads the whole slice, and MutualFilters
// reads it only when the first/last fast path is indecisive. Safe for
// concurrent use.
func (p *Profile) Digests() [][2]uint32 {
	p.digestOnce.Do(func() {
		p.vdDigests = make([][2]uint32, len(p.VDs))
		for i := range p.VDs {
			h1, h2 := bloom.Digest(p.VDs[i].Key())
			p.vdDigests[i] = [2]uint32{h1, h2}
		}
	})
	return p.vdDigests
}

// EdgeDigests returns the cached digest pairs of the profile's first
// and last VDs, computing only those two on first use. This is the
// linkage fast path's working set (see containsAtLeastLazy): a profile
// whose every candidate pair resolves on the fast path never derives
// its 58 interior digests at all. Safe for concurrent use.
func (p *Profile) EdgeDigests() [2][2]uint32 {
	p.edgeOnce.Do(func() {
		if n := len(p.VDs); n > 0 {
			h1, h2 := bloom.Digest(p.VDs[0].Key())
			p.edgeDigests[0] = [2]uint32{h1, h2}
			h1, h2 = bloom.Digest(p.VDs[n-1].Key())
			p.edgeDigests[1] = [2]uint32{h1, h2}
		}
	})
	return p.edgeDigests
}

// ID returns the VP identifier R shared by all the profile's VDs.
func (p *Profile) ID() vd.VPID {
	if len(p.VDs) == 0 {
		return vd.VPID{}
	}
	return p.VDs[0].R
}

// StartUnix returns the minute-aligned start time of the segment.
func (p *Profile) StartUnix() int64 {
	if len(p.VDs) == 0 {
		return 0
	}
	return p.VDs[0].T - int64(p.VDs[0].Seq)
}

// Minute returns the unit-time window index the profile belongs to;
// viewmaps are built per minute.
func (p *Profile) Minute() int64 { return p.StartUnix() / vd.SegmentSeconds }

// LocationAt returns the trajectory position at second i (1..60).
func (p *Profile) LocationAt(i int) (geo.Point, error) {
	if i < 1 || i > len(p.VDs) {
		return geo.Point{}, fmt.Errorf("vp: second %d outside profile", i)
	}
	return p.VDs[i-1].L, nil
}

// InitialLocation returns L1, the trajectory start used for guard
// routes.
func (p *Profile) InitialLocation() geo.Point {
	if len(p.VDs) == 0 {
		return geo.Point{}
	}
	return p.VDs[0].L1
}

// FinalLocation returns the last trajectory sample.
func (p *Profile) FinalLocation() geo.Point {
	if len(p.VDs) == 0 {
		return geo.Point{}
	}
	return p.VDs[len(p.VDs)-1].L
}

// EntersArea reports whether any trajectory sample falls inside r —
// the membership test for joining a viewmap whose coverage is r.
func (p *Profile) EntersArea(r geo.Rect) bool {
	for i := range p.VDs {
		if r.Contains(p.VDs[i].L) {
			return true
		}
	}
	return false
}

// Complete reports whether the profile spans the full minute.
func (p *Profile) Complete() bool { return len(p.VDs) == vd.SegmentSeconds }

// Validate performs structural checks an ingesting system runs on an
// uploaded VP: full minute, consistent identifier, monotone sequence
// and time, monotone file size, and a plausible (non-poisoned) filter.
func (p *Profile) Validate() error {
	if !p.Complete() {
		return fmt.Errorf("vp: profile has %d digests, want %d", len(p.VDs), vd.SegmentSeconds)
	}
	if p.Neighbors == nil {
		return errors.New("vp: missing neighbor filter")
	}
	r := p.VDs[0].R
	start := p.StartUnix()
	if start%vd.SegmentSeconds != 0 {
		return fmt.Errorf("vp: start %d not minute-aligned", start)
	}
	var prevF int64
	for i := range p.VDs {
		v := &p.VDs[i]
		if v.R != r {
			return fmt.Errorf("vp: digest %d changes VP identifier", i+1)
		}
		if v.Seq != uint64(i+1) {
			return fmt.Errorf("vp: digest %d has sequence %d", i+1, v.Seq)
		}
		if v.T != start+int64(i+1) {
			return fmt.Errorf("vp: digest %d has time %d, want %d", i+1, v.T, start+int64(i+1))
		}
		if v.F < prevF {
			return fmt.Errorf("vp: digest %d shrinks file size", i+1)
		}
		prevF = v.F
	}
	if fill := p.Neighbors.FillRatio(); fill > maxPlausibleFill() {
		return fmt.Errorf("vp: neighbor filter fill %.2f exceeds plausible maximum %.2f (poisoning?)", fill, maxPlausibleFill())
	}
	return nil
}

// maxPlausibleFill is the highest filter fill a legitimate VP can reach
// with the neighbor cap, plus slack; fuller filters are treated as the
// Section 6.3.2 all-ones fabrication.
func maxPlausibleFill() float64 {
	return math.Min(1, bloom.ExpectedFillRatio(FilterBits, filterK, 2*MaxNeighbors)*1.3)
}

// MaxSpeedMS is the plausibility ceiling on per-second displacement,
// used by viewmap construction to reject teleporting trajectories.
// 70 m/s = 252 km/h.
const MaxSpeedMS = 70

// PlausibleTrajectory reports whether consecutive samples never exceed
// MaxSpeedMS.
func (p *Profile) PlausibleTrajectory() bool {
	const maxStep2 = MaxSpeedMS * MaxSpeedMS
	for i := 1; i < len(p.VDs); i++ {
		if p.VDs[i-1].L.Dist2(p.VDs[i].L) > maxStep2 {
			return false
		}
	}
	return true
}

// MutualNeighbors implements the viewlink test of Section 5.2.1:
// some time-aligned pair of positions within dsrcRange metres, and
// two-way Bloom membership of each VP's element VDs in the other's
// filter.
//
// Each side of an honest link stores two element VDs per neighbor (the
// first and last received), so we require at least two distinct digest
// hits per direction. A single-hit match is overwhelmingly likely to
// be a Bloom false positive once filters carry a realistic neighbor
// load, and false viewlinks are what lets fake-VP layers leak trust
// (Section 6.3.2); squaring the per-query false-positive rate this way
// keeps the false-linkage probability negligible at city scale. The
// cost is that a contact which delivered only one beacon total is not
// linkable — a sub-second encounter that carries no evidential weight.
func MutualNeighbors(a, b *Profile, dsrcRange float64) bool {
	if a.Minute() != b.Minute() {
		return false
	}
	if a.ID() == b.ID() {
		return false
	}
	n := len(a.VDs)
	if len(b.VDs) < n {
		n = len(b.VDs)
	}
	near := false
	range2 := dsrcRange * dsrcRange
	for i := 0; i < n; i++ {
		if a.VDs[i].L.Dist2(b.VDs[i].L) <= range2 {
			near = true
			break
		}
	}
	if !near {
		return false
	}
	return containsAtLeast(a.Neighbors, b.Digests(), 2) && containsAtLeast(b.Neighbors, a.Digests(), 2)
}

// MutualFilters is the Bloom half of MutualNeighbors alone, evaluated
// against the profiles' lazily materialized digest caches: each
// profile's filter must contain at least two of the other's VD digests,
// but each direction first probes only the counterpart's first/last
// digest pairs (EdgeDigests) and derives the full sixty-entry digest
// slice on demand. Honest pairs — whose filters hold exactly each
// other's first and last VDs — never compute an interior digest. The
// accepted set is exactly MutualNeighbors' Bloom half. The linker
// (core.IncrementalBuilder) calls it once its own admission and
// candidate tests have established the same-minute,
// distinct-identifier and sample-proximity guards.
func MutualFilters(a, b *Profile) bool {
	return containsAtLeastLazy(a.Neighbors, b) && containsAtLeastLazy(b.Neighbors, a)
}

// containsAtLeastLazy is containsAtLeast(f, q.Digests(), 2) with the
// digest derivation deferred: the first/last fast path runs off
// EdgeDigests alone, and only an indecisive fast path materializes the
// full digest slice for the interior scan. The hit count over the full
// set is unchanged; only how much of it is ever derived differs.
func containsAtLeastLazy(f *bloom.Filter, q *Profile) bool {
	if f == nil {
		return false
	}
	if n := len(q.VDs); n >= 2 {
		edge := q.EdgeDigests()
		hits := f.CountDigestHits(edge[:1], 1) + f.CountDigestHits(edge[1:], 1)
		if hits >= 2 {
			return true
		}
		digests := q.Digests()
		return f.CountDigestHits(digests[1:n-1], 2-hits) >= 2-hits
	}
	return f.CountDigestHits(q.Digests(), 2) >= 2
}

func containsAtLeast(f *bloom.Filter, digests [][2]uint32, want int) bool {
	if f == nil {
		return false
	}
	hits := 0
	// Probe the first and last digests before the interior: linkage
	// stores a neighbor's first and last heard VDs, which for a
	// full-minute contact are exactly elements 0 and len-1, so an
	// honestly linked pair resolves in two probes instead of scanning
	// the whole minute. The hit count over the full set is unchanged;
	// only the evaluation order differs.
	if n := len(digests); n >= 2 && want == 2 {
		hits = f.CountDigestHits(digests[:1], 1) + f.CountDigestHits(digests[n-1:], 1)
		if hits >= want {
			return true
		}
		digests = digests[1 : n-1]
	}
	return f.CountDigestHits(digests, want-hits) >= want-hits
}

// neighborRecord keeps the first and last VD heard from one neighbor.
type neighborRecord struct {
	first, last vd.VD
	count       int
}

// Builder accumulates one minute of recording plus received neighbor
// VDs, then finalizes into a Profile.
type Builder struct {
	gen       *vd.Generator
	neighbors map[vd.VPID]*neighborRecord
	order     []vd.VPID // insertion order, for deterministic iteration
	maxN      int
	dsrcRange float64
	lastLoc   geo.Point
	haveLoc   bool
}

// NewBuilder starts building the VP for a segment with identifier r
// beginning at minute-aligned startUnix. maxNeighbors <= 0 selects the
// paper's cap of 250.
func NewBuilder(r vd.VPID, startUnix int64, maxNeighbors int, dsrcRange float64) (*Builder, error) {
	g, err := vd.NewGenerator(r, startUnix)
	if err != nil {
		return nil, err
	}
	if maxNeighbors <= 0 {
		maxNeighbors = MaxNeighbors
	}
	if dsrcRange <= 0 {
		return nil, fmt.Errorf("vp: DSRC range must be positive, got %v", dsrcRange)
	}
	return &Builder{
		gen:       g,
		neighbors: make(map[vd.VPID]*neighborRecord),
		maxN:      maxNeighbors,
		dsrcRange: dsrcRange,
	}, nil
}

// RecordSecond feeds the next second of video content at the current
// location and returns the VD to broadcast.
func (b *Builder) RecordSecond(loc geo.Point, chunk []byte) (vd.VD, error) {
	v, err := b.gen.Next(loc, chunk)
	if err != nil {
		return vd.VD{}, err
	}
	b.lastLoc = loc
	b.haveLoc = true
	return v, nil
}

// ErrNeighborCapReached is returned when a new neighbor would exceed
// the poisoning-mitigation cap; VDs from already-known neighbors are
// still accepted.
var ErrNeighborCapReached = errors.New("vp: neighbor cap reached")

// AcceptNeighborVD validates and stores a received VD per Section
// 5.1.1: time within the current interval, claimed location within
// DSRC range of the receiver, and at most two VDs (first and last)
// retained per neighbor VP identifier.
func (b *Builder) AcceptNeighborVD(v vd.VD, nowUnix int64) error {
	if !b.haveLoc {
		return errors.New("vp: cannot accept neighbor VD before first recorded second")
	}
	if err := vd.ValidateRanges(&v, nowUnix, b.lastLoc, b.dsrcRange); err != nil {
		return err
	}
	rec, ok := b.neighbors[v.R]
	if !ok {
		if len(b.neighbors) >= b.maxN {
			return ErrNeighborCapReached
		}
		b.neighbors[v.R] = &neighborRecord{first: v, last: v, count: 1}
		b.order = append(b.order, v.R)
		return nil
	}
	rec.last = v
	rec.count++
	return nil
}

// NeighborCount returns the number of distinct neighbor VPs heard.
func (b *Builder) NeighborCount() int { return len(b.neighbors) }

// NeighborIDs returns neighbor VP identifiers in first-heard order.
func (b *Builder) NeighborIDs() []vd.VPID {
	out := make([]vd.VPID, len(b.order))
	copy(out, b.order)
	return out
}

// NeighborInitialLocation returns the L1 field advertised by a
// neighbor, the seed for its guard route.
func (b *Builder) NeighborInitialLocation(id vd.VPID) (geo.Point, bool) {
	rec, ok := b.neighbors[id]
	if !ok {
		return geo.Point{}, false
	}
	return rec.first.L1, true
}

// Finalize compiles the builder into a Profile: the sixty VDs plus a
// Bloom filter holding the first and last VD of every neighbor.
func (b *Builder) Finalize() (*Profile, error) {
	if !b.gen.Complete() {
		return nil, errors.New("vp: segment incomplete, cannot finalize")
	}
	f := bloom.New(FilterBits, filterK)
	for _, id := range b.order {
		rec := b.neighbors[id]
		f.Add(rec.first.Key())
		if rec.count > 1 && rec.last != rec.first {
			f.Add(rec.last.Key())
		}
	}
	return &Profile{VDs: b.gen.Emitted(), Neighbors: f}, nil
}

// LastLocation returns the most recent recorded position.
func (b *Builder) LastLocation() (geo.Point, bool) { return b.lastLoc, b.haveLoc }

// SelectGuardTargets picks ceil(alpha*m) of the m given neighbor IDs at
// random (Section 5.1.2; the paper uses alpha = 0.1).
func SelectGuardTargets(ids []vd.VPID, alpha float64, rng *rand.Rand) []vd.VPID {
	if len(ids) == 0 || alpha <= 0 {
		return nil
	}
	if alpha > 1 {
		alpha = 1
	}
	n := int(math.Ceil(alpha * float64(len(ids))))
	perm := rng.Perm(len(ids))
	out := make([]vd.VPID, 0, n)
	for _, idx := range perm[:n] {
		out = append(out, ids[idx])
	}
	return out
}

// UncoveredProbability is the Section 6.2.2 formula
//
//	P_t = [1 - {1 - (1-alpha)^m}^m]^t
//
// the probability that some vehicle remains uncovered by any other's
// guard VP after t minutes among m mutual neighbors. The paper picks
// alpha = 0.1 to push P_t below 0.01 within 5 minutes.
func UncoveredProbability(alpha float64, m, tMinutes int) float64 {
	if m <= 0 || tMinutes <= 0 {
		return 1
	}
	inner := 1 - math.Pow(1-alpha, float64(m))
	perMin := 1 - math.Pow(inner, float64(m))
	return math.Pow(perMin, float64(tMinutes))
}

// GuardConfig parameterizes guard VP fabrication.
type GuardConfig struct {
	// SpeedMS is the fabricated driving speed along the route. When
	// zero or negative, the speed is chosen so the trajectory arrives
	// at the vehicle's final position exactly at the end of the minute,
	// which guarantees the guard passes the viewmap proximity check
	// against the actual VP it is linked to.
	SpeedMS float64
	// JitterM is the +/- margin of variable VD spacing along the route,
	// making guard trajectories look organic.
	JitterM float64
	// ChunkBytesPerSecond sizes the fake file-size ramp carried in the
	// guard VDs; defaults to a dashcam-typical rate when zero.
	ChunkBytesPerSecond int64
}

// BuildGuard fabricates a guard VP for the chosen neighbor: a
// trajectory routed from the neighbor's initial location to the
// builder vehicle's own final position, with variably spaced samples
// and random hash fields (guards are not backed by any video). It
// returns the guard profile; the caller must link it with the actual
// profile via LinkMutually and is expected to delete it after upload.
func BuildGuard(net *roadnet.Network, neighborL1, ownLast geo.Point, startUnix int64, cfg GuardConfig, rng *rand.Rand) (*Profile, error) {
	if startUnix%vd.SegmentSeconds != 0 {
		return nil, fmt.Errorf("vp: guard start %d not minute-aligned", startUnix)
	}
	perSec := cfg.ChunkBytesPerSecond
	if perSec <= 0 {
		perSec = 800_000
	}
	route, err := net.Directions(neighborL1, ownLast)
	if err != nil {
		return nil, fmt.Errorf("vp: routing guard trajectory: %w", err)
	}
	speed := cfg.SpeedMS
	if speed <= 0 {
		speed = route.Length / float64(vd.SegmentSeconds-1)
	}
	var jitter func(int) float64
	if cfg.JitterM > 0 {
		jitter = func(int) float64 { return (rng.Float64()*2 - 1) * cfg.JitterM }
	}
	samples := route.SamplePerSecond(speed, vd.SegmentSeconds, jitter)

	// The guard's secret comes from the caller's rng, not crypto/rand:
	// guards are unredeemable chaff, and callers (simulation engines,
	// vehicle agents) rely on same-seed fabrication being reproducible.
	var q vd.Secret
	for i := range q {
		q[i] = byte(rng.Intn(256))
	}
	r := vd.DeriveVPID(q)
	vds := make([]vd.VD, vd.SegmentSeconds)
	var size int64
	for i := 0; i < vd.SegmentSeconds; i++ {
		size += perSec
		var h vd.Hash
		// "Guard VPs are not for actual videos and thus, their hash
		// fields are filled with random values."
		for j := range h {
			h[j] = byte(rng.Intn(256))
		}
		vds[i] = vd.VD{
			T:   startUnix + int64(i+1),
			L:   samples[i],
			F:   size,
			L1:  samples[0],
			Seq: uint64(i + 1),
			R:   r,
			H:   h,
		}
	}
	return &Profile{
		VDs:       vds,
		Neighbors: bloom.New(FilterBits, filterK),
	}, nil
}

// LinkMutually inserts each profile's first and last VDs into the
// other's Bloom filter, establishing the two-way viewlink that guard
// VPs need to blend into the viewmap.
func LinkMutually(a, b *Profile) error {
	if len(a.VDs) == 0 || len(b.VDs) == 0 || a.Neighbors == nil || b.Neighbors == nil {
		return errors.New("vp: cannot link incomplete profiles")
	}
	a.Neighbors.Add(b.VDs[0].Key())
	a.Neighbors.Add(b.VDs[len(b.VDs)-1].Key())
	b.Neighbors.Add(a.VDs[0].Key())
	b.Neighbors.Add(a.VDs[len(a.VDs)-1].Key())
	return nil
}

// Marshal serializes a profile for anonymous upload: a 4-byte count,
// the VD wire records, the filter hash count, and the filter bit
// array. The format carries no owner-identifying data.
func (p *Profile) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.WireLen()))
}

// MaxWireLen is the wire length of a full-minute profile, the longest
// record Unmarshal accepts. Decoders size buffers by how many such
// records the bytes in hand could hold.
const MaxWireLen = 6 + vd.SegmentSeconds*vd.WireSize + FilterBits/8

// WireLen returns the byte length of the profile's wire record (what
// Marshal returns) without marshalling it. The length is fixed by the
// digest count and the filter size, so a writer can frame a stream of
// records before encoding any of them.
func (p *Profile) WireLen() int {
	filter := FilterBits / 8
	if p.Neighbors != nil {
		filter = p.Neighbors.Bits() / 8
	}
	return 6 + len(p.VDs)*vd.WireSize + filter
}

// AppendMarshal appends the profile's wire record (see Marshal) to dst
// and returns the extended slice. Marshalling into a reused buffer
// allocates nothing once the buffer has room for WireLen more bytes.
func (p *Profile) AppendMarshal(dst []byte) []byte {
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(p.VDs)))
	if p.Neighbors != nil {
		hdr[4] = byte(p.Neighbors.K())
	}
	hdr[5] = 0 // reserved
	dst = append(dst, hdr[:]...)
	for i := range p.VDs {
		enc := p.VDs[i].Encode()
		dst = append(dst, enc[:]...)
	}
	if p.Neighbors != nil {
		return p.Neighbors.AppendBytes(dst)
	}
	return append(dst, make([]byte, FilterBits/8)...)
}

// MarshalBatch serializes profiles for the batched anonymous upload
// (POST /v1/vp/batch): a 4-byte big-endian record count followed by
// the Marshal wire records, each prefixed with its 4-byte big-endian
// length. Like the single-record format it carries no owner- or
// batch-identifying data beyond the grouping itself; vehicles that
// batch across minutes trade a little upload-time unlinkability for
// fewer circuits, which is their call to make.
func MarshalBatch(ps []*Profile) []byte {
	size := 4
	recs := make([][]byte, len(ps))
	for i, p := range ps {
		recs[i] = p.Marshal()
		size += 4 + len(recs[i])
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(recs)))
	out = append(out, hdr[:]...)
	for _, rec := range recs {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
		out = append(out, hdr[:]...)
		out = append(out, rec...)
	}
	return out
}

// MarshalRawBatch frames already-marshaled VP wire records with the
// MarshalBatch framing (4-byte count, then per record a 4-byte length
// prefix). Callers that hold the raw records — the server's ingest
// journal re-frames the admitted subset of an uploaded batch — avoid
// a re-marshal round trip; MarshalBatch(ps) is exactly
// MarshalRawBatch of each profile's Marshal.
func MarshalRawBatch(recs [][]byte) []byte {
	size := 4
	for _, rec := range recs {
		size += 4 + len(rec)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(recs)))
	out = append(out, hdr[:]...)
	for _, rec := range recs {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
		out = append(out, hdr[:]...)
		out = append(out, rec...)
	}
	return out
}

// SplitBatch parses the MarshalBatch framing and returns the raw
// per-record byte slices (views into b), leaving per-record profile
// parsing — and its failure policy — to the caller. It errors on a
// corrupt frame: a record count above maxRecords (<= 0 means
// unlimited), a truncated length or body, or trailing bytes.
func SplitBatch(b []byte, maxRecords int) ([][]byte, error) {
	if len(b) < 4 {
		return nil, errors.New("vp: truncated batch header")
	}
	// Lengths are compared in uint64 before any int conversion: the
	// wire fields are untrusted, and a uint32 cast to a 32-bit int
	// can go negative and slip past a signed bounds check.
	count := binary.BigEndian.Uint32(b[:4])
	if maxRecords > 0 && uint64(count) > uint64(maxRecords) {
		return nil, fmt.Errorf("vp: batch of %d records exceeds the %d cap", count, maxRecords)
	}
	b = b[4:]
	// Preallocation is bounded by what the payload could actually
	// frame (4 bytes of length prefix per record), not by the
	// untrusted count — in unlimited mode a bogus count must not
	// demand gigabytes before the truncation check rejects it.
	prealloc := uint64(len(b) / 4)
	if uint64(count) < prealloc {
		prealloc = uint64(count)
	}
	records := make([][]byte, 0, prealloc)
	for i := 0; i < int(count); i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("vp: batch record %d: truncated length", i)
		}
		size := binary.BigEndian.Uint32(b[:4])
		b = b[4:]
		if uint64(size) > uint64(len(b)) {
			return nil, fmt.Errorf("vp: batch record %d claims %d bytes, %d remain", i, size, len(b))
		}
		records = append(records, b[:size])
		b = b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("vp: %d trailing bytes after batch", len(b))
	}
	return records, nil
}

// Profile decode errors, shared between Unmarshal and
// BatchArena.Unmarshal so the two decoders reject identically.
var errTruncatedProfile = errors.New("vp: truncated profile")

func errDigestCount(n int) error {
	return fmt.Errorf("vp: profile claims %d digests", n)
}

func errProfileSize(got, want int) error {
	return fmt.Errorf("vp: profile is %d bytes, want %d", got, want)
}

// Unmarshal parses a profile uploaded by a vehicle.
func Unmarshal(b []byte) (*Profile, error) {
	if len(b) < 6 {
		return nil, errTruncatedProfile
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	k := int(b[4])
	if n <= 0 || n > vd.SegmentSeconds {
		return nil, errDigestCount(n)
	}
	want := 6 + n*vd.WireSize + FilterBits/8
	if len(b) != want {
		return nil, errProfileSize(len(b), want)
	}
	p := &Profile{VDs: make([]vd.VD, n)}
	off := 6
	for i := 0; i < n; i++ {
		v, err := vd.Decode(b[off : off+vd.WireSize])
		if err != nil {
			return nil, err
		}
		p.VDs[i] = v
		off += vd.WireSize
	}
	f, err := bloom.FromBytes(b[off:off+FilterBits/8], k)
	if err != nil {
		return nil, err
	}
	p.Neighbors = f
	return p, nil
}
