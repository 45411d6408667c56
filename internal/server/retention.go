package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"viewmap/internal/vp"
)

// Minute-window retention. A continuously running deployment ingests a
// new minute shard every minute and would otherwise hold every one of
// them — slab, incremental graph, viewmap cache — in memory forever.
// With retention enabled, shards older than the configured horizon are
// spilled to per-minute segment files and evicted: the profiles, the
// minute's linked graph, and its caches all leave memory, and only the
// identifier index keeps a 16-byte marker per evicted VP so duplicate
// rejection still holds across the whole history. An investigation or
// evidence lookup against an evicted minute transparently reloads the
// segment — re-linking the profiles in their original ingest order
// reproduces the identical viewmap (the evict-then-reload equality
// invariant, pinned by TestEvictReloadEquality) — and reloaded cold
// minutes live in a small LRU-bounded resident set of their own.
//
// Segment files are written with fsync before the in-memory shard is
// dropped, so an evicted minute is always durable on its own: the
// snapshot + WAL pair covers the resident window, the segment files
// cover everything older.

// segMagic heads a minute-segment file.
var segMagic = [8]byte{'V', 'M', 'A', 'P', 'S', 'E', 'G', '1'}

// maxSegmentRecord bounds one profile record in a segment file; same
// cap as the legacy store stream.
const maxSegmentRecord = 1 << 20

// evictedRef marks an identifier whose profile lives in an on-disk
// minute segment rather than in memory. It keeps duplicate rejection
// exact across eviction: the identifier stays claimed in the index,
// and Get follows the marker through a segment reload.
type evictedRef struct{ minute int64 }

// segmentPath names minute m's segment file.
func (s *Store) segmentPath(m int64) string {
	return filepath.Join(s.cfg.SegmentDir, fmt.Sprintf("minute-%d.seg", m))
}

// RetentionEnabled reports whether this store spills old minutes.
func (s *Store) RetentionEnabled() bool {
	return s.cfg.SegmentDir != "" && s.cfg.RetentionMinutes > 0
}

// residentColdCap returns the LRU bound on reloaded cold shards.
func (s *Store) residentColdCap() int {
	if s.cfg.ResidentColdMinutes > 0 {
		return s.cfg.ResidentColdMinutes
	}
	return 2
}

// ApplyRetention spills and evicts every resident shard older than the
// horizon (the newest ingested minute minus RetentionMinutes), then
// trims the cold resident set down to its LRU bound. The durability
// runtime calls this periodically; tests and the continuous workload
// call it directly. It returns how many shards were evicted.
func (s *Store) ApplyRetention() (int, error) {
	if !s.RetentionEnabled() {
		return 0, nil
	}
	newest := s.newestMinute.Load()
	if newest == noMinute {
		return 0, nil
	}
	cut := newest - int64(s.cfg.RetentionMinutes)

	s.mu.RLock()
	var hot []int64
	for m, sh := range s.shards {
		if !sh.cold && m <= cut {
			hot = append(hot, m)
		}
	}
	s.mu.RUnlock()

	evicted := 0
	for _, m := range hot {
		if err := s.evictShard(m); err != nil {
			return evicted, err
		}
		evicted++
	}
	trimmed, err := s.trimCold()
	return evicted + trimmed, err
}

// trimCold evicts reloaded cold minutes beyond the LRU bound, least
// recently touched first. Both the periodic sweep and every segment
// reload run it, so the bounded-residency invariant holds even when a
// burst of cold queries arrives between sweeps.
func (s *Store) trimCold() (int, error) {
	s.mu.RLock()
	var cold []int64
	coldTouch := map[int64]uint64{}
	for m, sh := range s.shards {
		if sh.cold {
			cold = append(cold, m)
			coldTouch[m] = sh.lastTouch.Load()
		}
	}
	s.mu.RUnlock()
	over := len(cold) - s.residentColdCap()
	if over <= 0 {
		return 0, nil
	}
	sort.Slice(cold, func(i, j int) bool { return coldTouch[cold[i]] < coldTouch[cold[j]] })
	evicted := 0
	for _, m := range cold[:over] {
		if err := s.evictShard(m); err != nil {
			return evicted, err
		}
		evicted++
	}
	return evicted, nil
}

// evictShard spills minute m's shard to its segment file and drops it
// from memory. The write happens outside the store lock against a
// versioned copy of the slab; if ingest grows the shard meanwhile the
// spill restarts, so the segment always matches the dropped state.
// The whole write-and-drop runs under spillMu: the retention sweep and
// a reload's trimCold can both pick the same dirty minute, and two
// spills through its one temp path would tear the segment.
func (s *Store) evictShard(m int64) error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	start := time.Now()
	for {
		sh := s.shard(m)
		if sh == nil {
			return nil
		}
		sh.mu.Lock()
		version := len(sh.profiles)
		dirty := sh.dirty
		profiles := make([]*vp.Profile, version)
		copy(profiles, sh.profiles)
		sh.mu.Unlock()

		if dirty {
			if err := s.writeSegment(m, profiles); err != nil {
				return err
			}
		}

		s.mu.Lock()
		if s.shards[m] != sh {
			s.mu.Unlock()
			continue // replaced under us; retry against the new shard
		}
		sh.mu.Lock()
		if len(sh.profiles) != version {
			sh.mu.Unlock()
			s.mu.Unlock()
			continue // ingest raced the spill; rewrite the segment
		}
		for _, p := range profiles {
			s.ids.Store(p.ID(), evictedRef{minute: m})
		}
		sh.evicted = true
		// Wake any watch stream parked on the shard; the commit paths
		// check evicted under this same lock before closing, so the
		// channel closes exactly once.
		close(sh.changed)
		delete(s.shards, m)
		if version > 0 {
			// An empty shard (created for an in-flight burst that has
			// not committed yet) has no segment file; registering one
			// would poison later reloads of the minute.
			s.segments[m] = true
		}
		sh.mu.Unlock()
		s.mu.Unlock()
		// The shard is out of the map and marked evicted; its link
		// worker drains (failing queued bursts back to their submitters,
		// who re-resolve against the successor shard) and exits.
		sh.stopLinkWorker()
		// Eviction runs on the background sweep, never a request path, so
		// the timing is unconditional (spill + drop, including retries).
		s.evictions.Add(1)
		s.evictionNS.Add(int64(time.Since(start)))
		return nil
	}
}

// writeSegment persists one minute's profiles, in ingest order, to the
// minute's segment file: temp file, fsync, atomic rename, directory
// sync — the file is durable before the in-memory shard may be
// dropped. Callers hold spillMu, which owns the temp path and the
// shared spill writer.
func (s *Store) writeSegment(m int64, profiles []*vp.Profile) error {
	if s.cfg.SegmentDir == "" {
		return errors.New("server: no segment directory configured")
	}
	path := s.segmentPath(m)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var head [20]byte
	copy(head[:8], segMagic[:])
	binary.BigEndian.PutUint64(head[8:16], uint64(m))
	binary.BigEndian.PutUint32(head[16:], uint32(len(profiles)))
	_, err = s.spill.write(f, head[:], profiles)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.cfg.SegmentDir)
	return nil
}

// readSegment parses minute m's segment file. Lengths are validated
// before allocation: segment files normally round-trip our own writes,
// but recovery must not crash — or balloon — on a corrupt one.
func (s *Store) readSegment(m int64) ([]*vp.Profile, error) {
	f, err := os.Open(s.segmentPath(m))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("server: segment %d header: %w", m, err)
	}
	if magic != segMagic {
		return nil, fmt.Errorf("server: minute %d: not a segment file", m)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("server: segment %d header: %w", m, err)
	}
	if got := int64(binary.BigEndian.Uint64(hdr[:8])); got != m {
		return nil, fmt.Errorf("server: segment file for minute %d claims minute %d", m, got)
	}
	count := binary.BigEndian.Uint32(hdr[8:])
	profiles := make([]*vp.Profile, 0, min(int(count), 1<<16))
	for i := uint32(0); i < count; i++ {
		var rh [5]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return nil, fmt.Errorf("server: segment %d record %d: %w", m, i, err)
		}
		size := binary.BigEndian.Uint32(rh[:4])
		if size > maxSegmentRecord {
			return nil, fmt.Errorf("server: segment %d record %d claims %d bytes", m, i, size)
		}
		rec := make([]byte, size)
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("server: segment %d record %d: %w", m, i, err)
		}
		p, err := vp.Unmarshal(rec)
		if err != nil {
			return nil, fmt.Errorf("server: segment %d record %d: %w", m, i, err)
		}
		p.Trusted = rh[4] == 1
		profiles = append(profiles, p)
	}
	return profiles, nil
}

// reloadSegment brings an evicted minute back into memory: the segment
// is read, the profiles re-linked in their original ingest order
// (reproducing the identical minute graph), the identifier index
// restored to live pointers, and the rebuilt shard installed as a cold
// resident. Single-flight: concurrent cold queries for any evicted
// minute serialize here, and the winner's shard is reused.
func (s *Store) reloadSegment(m int64) (*minuteShard, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if sh := s.shard(m); sh != nil {
		return sh, nil
	}
	s.mu.RLock()
	have := s.segments[m]
	s.mu.RUnlock()
	if !have {
		return nil, fmt.Errorf("%w %d", ErrNoMinute, m)
	}
	profiles, err := s.readSegment(m)
	if err != nil {
		return nil, err
	}
	sh := s.newShard(m)
	sh.cold = true
	for _, p := range profiles {
		if !s.cfg.DisableViewmapCache {
			linked, err := sh.builder.Add(p)
			if err != nil {
				return nil, fmt.Errorf("server: relinking segment %d: %w", m, err)
			}
			if !linked {
				sh.quarantined++
			}
		}
		sh.profiles = append(sh.profiles, p)
		s.ids.Store(p.ID(), p)
	}
	s.touch(sh)
	// The relink above ran builder.Add directly — safe only because the
	// shard's ring is unreachable until the map install below makes the
	// shard visible. The worker must exist before that instant.
	s.startLinkWorker(sh)
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		sh.stopLinkWorker()
		return nil, errStoreClosed
	}
	s.shards[m] = sh
	s.mu.Unlock()
	// Enforce the cold LRU bound immediately: a burst of cold queries
	// must not grow residency until the next periodic sweep. The just-
	// installed shard carries the newest touch stamp, so it is never
	// the one trimmed (for any cap >= 1). A trim failure only delays
	// eviction, so it is not allowed to fail the query.
	if s.RetentionEnabled() {
		s.trimCold()
	}
	return sh, nil
}

// adoptSegments registers every segment file on disk with the store:
// evicted minutes become queryable again and their identifiers are
// re-claimed in the index (so WAL replay rejects their records as
// duplicates) without keeping the profiles resident. Recovery calls
// this before replaying the WAL. Minutes already resident (a snapshot
// can predate an eviction) keep their in-memory state; the stale
// segment is simply re-registered and will be rewritten on the next
// eviction.
func (s *Store) adoptSegments() (minutes int, err error) {
	if s.cfg.SegmentDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.SegmentDir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		var m int64
		if n, err := fmt.Sscanf(e.Name(), "minute-%d.seg", &m); n != 1 || err != nil {
			continue
		}
		resident := s.shard(m) != nil
		s.mu.Lock()
		s.segments[m] = true
		s.mu.Unlock()
		if resident {
			minutes++
			continue
		}
		profiles, err := s.readSegment(m)
		if err != nil {
			return minutes, err
		}
		for _, p := range profiles {
			if _, dup := s.ids.LoadOrStore(p.ID(), evictedRef{minute: m}); dup {
				continue
			}
			s.count.Add(1)
			if p.Trusted {
				s.trustedCount.Add(1)
			}
		}
		if m > s.newestMinute.Load() {
			s.newestMinute.Store(m)
		}
		minutes++
	}
	return minutes, nil
}

// touch stamps a shard's recency for the cold-set LRU.
func (s *Store) touch(sh *minuteShard) {
	sh.lastTouch.Store(s.touchSeq.Add(1))
}

// RetentionStats describe the store's resident/evicted split.
type RetentionStats struct {
	// ResidentMinutes counts minute shards currently in memory.
	ResidentMinutes int
	// ColdResident counts the resident shards that were reloaded from
	// segment files (bounded by the cold LRU cap).
	ColdResident int
	// EvictedMinutes counts minutes that live only in segment files.
	EvictedMinutes int
	// Evictions counts shard evictions this process lifetime;
	// EvictionTotalMS is their cumulative wall time (spill + drop) in
	// milliseconds.
	Evictions       int64
	EvictionTotalMS float64
}

// RetentionStatsSnapshot reads the current resident/evicted split.
func (s *Store) RetentionStatsSnapshot() RetentionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := RetentionStats{
		ResidentMinutes: len(s.shards),
		Evictions:       s.evictions.Load(),
		EvictionTotalMS: float64(s.evictionNS.Load()) / float64(time.Millisecond),
	}
	for _, sh := range s.shards {
		if sh.cold {
			st.ColdResident++
		}
	}
	for m := range s.segments {
		if _, ok := s.shards[m]; !ok {
			st.EvictedMinutes++
		}
	}
	return st
}
