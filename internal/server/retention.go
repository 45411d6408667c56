package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"viewmap/internal/vp"
)

// Minute segments and retention. A segment file is the one form in
// which a minute is written: Checkpoint spills every changed minute
// (spillResident) and an eviction a still-dirty one, each fsynced
// before the snapshot or the drop that relies on it.
//
// A continuously running deployment ingests a new minute shard every
// minute and would otherwise hold every one of them — slab,
// incremental graph, viewmap cache — in memory forever. With retention
// enabled, shards older than the configured horizon are evicted: the
// profiles, the minute's linked graph, and its caches all leave
// memory, and only the identifier index keeps a 16-byte marker per
// evicted VP so duplicate rejection still holds across the whole
// history. The store also remembers the builder epoch each segment
// restores (Store.segments), so a repeat investigation of an unchanged
// evicted minute is answered from the verdict cache's report without
// touching the file. Any other lookup against a minute that is only in
// its segment — the first investigation of a (site, minute) at the
// segment's epoch, an uncached site, a per-VP report, an evidence
// lookup, a late upload, the first touch after a restart —
// transparently reloads the segment. The segment carries the minute's
// viewlinks next to its profiles, so a reload restores the graph the
// spilling shard held instead of relinking every pair — the identical
// viewmap and epoch (the evict-then-reload equality invariant, pinned
// by TestEvictReloadEquality) — and reloaded cold minutes live in a
// small LRU-bounded resident set of their own. A segment that can no
// longer be read, decoded or restored fails the reload with
// ErrDurability.
//
// A segment file is (docs/persistence-format.md §Segments):
//
//	"VMAPSEG2" | u64 minute | u32 record count
//	records    u32 wire length | u8 trusted | wire record, in ingest order
//	links      u32 node count, then per linked node u32 n | n × u32 ids
//	u32 CRC-32C (Castagnoli) over every byte before it
//
// The link section lists, for every node of the minute's graph in node
// order, its neighbours with smaller ids (core.IncrementalBuilder's
// LowerLinks). Nodes are the records the linker admitted, in record
// order; quarantined records have none.

// segMagic heads a minute-segment file; segMagicV1 heads the retired
// link-less format, which reloads refuse by name.
var (
	segMagic   = [8]byte{'V', 'M', 'A', 'P', 'S', 'E', 'G', '2'}
	segMagicV1 = [8]byte{'V', 'M', 'A', 'P', 'S', 'E', 'G', '1'}
)

// segHeadLen is the fixed segment header: magic, minute, record count.
const segHeadLen = 20

// evictedRef marks an identifier whose profile lives in an on-disk
// minute segment rather than in memory. It keeps duplicate rejection
// exact across eviction: the identifier stays claimed in the index,
// and Get follows the marker through a segment reload.
type evictedRef struct{ minute int64 }

// segmentName is the file name of minute m's segment; recovery adopts
// exactly the names it produces.
func segmentName(m int64) string { return fmt.Sprintf("minute-%d.seg", m) }

// segmentPath names minute m's segment file.
func (s *Store) segmentPath(m int64) string {
	return filepath.Join(s.cfg.segmentDir, segmentName(m))
}

// RetentionEnabled reports whether this store spills old minutes.
func (s *Store) RetentionEnabled() bool {
	return s.cfg.segmentDir != "" && s.cfg.retentionMinutes > 0
}

// residentColdCap returns the LRU bound on reloaded cold shards.
func (s *Store) residentColdCap() int {
	if s.cfg.residentColdMinutes > 0 {
		return s.cfg.residentColdMinutes
	}
	return 2
}

// ApplyRetention spills and evicts every resident shard older than the
// horizon (the newest ingested minute minus the retention minutes),
// then trims the cold resident set down to its LRU bound. The
// durability runtime calls this periodically; tests and the scenario
// engine call it directly. It returns how many shards were evicted.
func (s *Store) ApplyRetention() (int, error) {
	if !s.RetentionEnabled() {
		return 0, nil
	}
	newest := s.newestMinute.Load()
	if newest == noMinute {
		return 0, nil
	}
	cut := newest - int64(s.cfg.retentionMinutes)

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

// evictShard spills minute m's shard (spillShard) and drops it from
// memory. It holds the shard's link lock from the segment cut to the
// drop, so no burst commits in between and the segment always matches
// the dropped state. The whole spill-and-drop runs under spillMu: the
// retention sweep, a reload's trimCold and a checkpoint can all pick
// the same dirty minute, and two spills through its one temp path would
// tear the segment. spillMu also keeps the shard map entry for m in
// place, since only an eviction removes one.
func (s *Store) evictShard(m int64) error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	start := time.Now()
	sh := s.shard(m)
	if sh == nil {
		return nil
	}
	sh.linkMu.Lock()
	defer sh.linkMu.Unlock()
	if err := s.spillShard(sh); err != nil {
		return err
	}

	s.mu.Lock()
	sh.mu.Lock()
	for _, p := range sh.profiles {
		s.ids.Store(p.ID(), evictedRef{minute: m})
	}
	sh.evicted = true
	// Wake any watch stream parked on the shard; commits run under the
	// link lock held here, so the channel closes exactly once.
	close(sh.changed)
	delete(s.shards, m)
	sh.mu.Unlock()
	s.mu.Unlock()
	// Eviction runs on the background sweep or a reload's trim, never an
	// ingest path, so the timing is unconditional (spill + drop).
	s.evictions.Add(1)
	s.evictionNS.Add(int64(time.Since(start)))
	return nil
}

// spillShard writes sh to its minute's segment file if ingest changed
// it since its last spill, and records the epoch the segment restores.
// The caller holds spillMu and sh's link lock, which every writer of
// the slab, the graph and dirty holds.
func (s *Store) spillShard(sh *minuteShard) error {
	// An evicted shard was spilled already, and a clean one matches its
	// segment. An empty one (created for a burst not yet linked) has no
	// segment file; registering one would poison later reloads of the
	// minute.
	if sh.evicted || !sh.dirty || len(sh.profiles) == 0 {
		return nil
	}
	m := sh.builder.Minute()
	if err := s.writeSegment(m, sh.profiles, sh.builder.LowerLinks()); err != nil {
		return err
	}
	sh.dirty = false
	s.mu.Lock()
	s.segments[m] = sh.builder.Epoch()
	s.mu.Unlock()
	return nil
}

// spillResident spills every resident shard without evicting it, so
// each segment holds every record its minute had committed when the
// call began. Ingest into a minute waits while its segment is written.
func (s *Store) spillResident() error {
	s.mu.RLock()
	shards := make([]*minuteShard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	for _, sh := range shards {
		s.spillMu.Lock()
		sh.linkMu.Lock()
		err := s.spillShard(sh)
		sh.linkMu.Unlock()
		s.spillMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSegment persists one minute's profiles, in ingest order, and
// the lower-neighbour lists of its graph's nodes to the minute's
// segment file: temp file, fsync, atomic rename, directory sync — the
// file is durable before the in-memory shard may be dropped. Callers
// hold spillMu, which owns the temp path and the shared spill writer.
func (s *Store) writeSegment(m int64, profiles []*vp.Profile, links [][]int) error {
	if s.cfg.segmentDir == "" {
		return errors.New("server: no segment directory configured")
	}
	path := s.segmentPath(m)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var head [segHeadLen]byte
	copy(head[:8], segMagic[:])
	binary.BigEndian.PutUint64(head[8:16], uint64(m))
	binary.BigEndian.PutUint32(head[16:], uint32(len(profiles)))
	sum := crcWriter{w: f}
	err = s.spill.write(&sum, head[:], profiles)
	if err == nil {
		// The link section and the checksum leave in one more write,
		// built in the spill writer's buffer.
		tail := appendLinkSection(s.spill.buf[:0], links)
		tail = binary.BigEndian.AppendUint32(tail, crc32.Update(sum.crc, walCRC, tail))
		_, err = f.Write(tail)
		s.spill.buf = tail[:0]
	}
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
	syncDir(s.cfg.segmentDir)
	return nil
}

// appendLinkSection appends a segment's link section for the given
// lower-neighbour lists to buf.
func appendLinkSection(buf []byte, links [][]int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(links)))
	for _, l := range links {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(l)))
		for _, id := range l {
			buf = binary.BigEndian.AppendUint32(buf, uint32(id))
		}
	}
	return buf
}

// crcWriter passes writes through to w, folding what was written into
// a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, walCRC, p[:n])
	return n, err
}

// readSegment reads minute m's segment file in one pass and decodes it
// (decodeSegment): its profiles in ingest order and the lower-neighbour
// list of every graph node.
func (s *Store) readSegment(m int64) ([]*vp.Profile, [][]int, error) {
	data, err := os.ReadFile(s.segmentPath(m))
	if err != nil {
		return nil, nil, err
	}
	return decodeSegment(m, data)
}

// decodeSegment parses the segment image of minute m. The checksum is
// verified before any field is trusted, and every allocation is bounded
// by the bytes present rather than by the counts the file claims:
// segment files normally round-trip our own writes, but recovery must
// not crash — or balloon — on a corrupt one. The profiles are decoded
// into one vp.BatchArena and the link ids into one slab.
func decodeSegment(m int64, data []byte) ([]*vp.Profile, [][]int, error) {
	if len(data) < len(segMagic) {
		return nil, nil, fmt.Errorf("server: segment %d: truncated header", m)
	}
	switch [8]byte(data[:8]) {
	case segMagic:
	case segMagicV1:
		return nil, nil, fmt.Errorf("server: segment %d is in the retired VMAPSEG1 format, which carries no viewlinks; this server reads only VMAPSEG2", m)
	default:
		return nil, nil, fmt.Errorf("server: minute %d: not a segment file", m)
	}
	// Header, an empty link section and the checksum.
	if len(data) < segHeadLen+4+4 {
		return nil, nil, fmt.Errorf("server: segment %d: truncated", m)
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, walCRC) != binary.BigEndian.Uint32(data[len(body):]) {
		return nil, nil, fmt.Errorf("server: segment %d: checksum mismatch", m)
	}
	if got := int64(binary.BigEndian.Uint64(body[8:16])); got != m {
		return nil, nil, fmt.Errorf("server: segment file for minute %d claims minute %d", m, got)
	}
	count := binary.BigEndian.Uint32(body[16:segHeadLen])
	rest := body[segHeadLen:]

	// Size the arena by how many full-minute records the bytes could
	// hold, not by the claimed count; records beyond it (only short
	// profiles get there) fall back to the allocating decoder.
	n := min(uint64(count), uint64(len(rest)/(5+vp.MaxWireLen)))
	arena := vp.NewBatchArena(int(n))
	profiles := make([]*vp.Profile, 0, n)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 5 {
			return nil, nil, fmt.Errorf("server: segment %d record %d: truncated frame", m, i)
		}
		size := binary.BigEndian.Uint32(rest[:4])
		if uint64(size) > uint64(len(rest)-5) {
			return nil, nil, fmt.Errorf("server: segment %d record %d claims %d bytes, %d remain", m, i, size, len(rest)-5)
		}
		p, err := arena.Unmarshal(rest[5 : 5+size])
		if err != nil {
			return nil, nil, fmt.Errorf("server: segment %d record %d: %w", m, i, err)
		}
		p.Trusted = rest[4] == 1
		profiles = append(profiles, p)
		rest = rest[5+size:]
	}

	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("server: segment %d: truncated link section", m)
	}
	nodes := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	// Every node costs at least its u32 list length.
	if uint64(nodes) > uint64(len(rest)/4) {
		return nil, nil, fmt.Errorf("server: segment %d claims %d linked nodes in %d bytes", m, nodes, len(rest))
	}
	links := make([][]int, nodes)
	ids := make([]int, 0, len(rest)/4-int(nodes))
	for i := range links {
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("server: segment %d node %d: truncated link list", m, i)
		}
		k := uint64(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if k > uint64(len(rest)/4) {
			return nil, nil, fmt.Errorf("server: segment %d node %d claims %d links, %d bytes remain", m, i, k, len(rest))
		}
		start := len(ids)
		for j := uint64(0); j < k; j++ {
			ids = append(ids, int(binary.BigEndian.Uint32(rest[4*j:])))
		}
		rest = rest[4*k:]
		links[i] = ids[start:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("server: segment %d: %d trailing bytes after the link section", m, len(rest))
	}
	return profiles, links, nil
}

// reloadSegment brings a minute back into memory from its segment: the
// segment is read, the minute graph restored from its saved viewlinks
// with the profiles in their original ingest order (reproducing the
// identical graph without relinking), the identifier index restored to
// live pointers, and the restored shard installed.
// Single-flight: concurrent cold queries for any evicted minute
// serialize here, and the winner's shard is reused. A segment that
// cannot be read, decoded or restored fails with ErrDurability.
func (s *Store) reloadSegment(m int64) (*minuteShard, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if sh := s.shard(m); sh != nil {
		return sh, nil
	}
	s.mu.RLock()
	_, have := s.segments[m]
	s.mu.RUnlock()
	if !have {
		return nil, fmt.Errorf("%w %d", ErrNoMinute, m)
	}
	start := time.Now()
	profiles, links, err := s.readSegment(m)
	if err != nil {
		return nil, reloadFailed(m, err)
	}
	sh := s.newShard(m)
	// Only a minute at or behind the horizon joins the cold LRU; any
	// other, such as one a restart left in its segment, is hot, so the
	// LRU never trims the minute ingest is writing.
	sh.cold = s.RetentionEnabled() && m <= s.newestMinute.Load()-int64(s.cfg.retentionMinutes)
	if err := sh.restore(profiles, links); err != nil {
		return nil, reloadFailed(m, fmt.Errorf("restoring the graph: %w", err))
	}
	for _, p := range profiles {
		s.ids.Store(p.ID(), p)
	}
	s.touch(sh)
	// The restore above ran the builder without the link lock — safe
	// only because no burst can reach the shard before the map install
	// below makes it visible.
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, errStoreClosed
	}
	s.shards[m] = sh
	s.mu.Unlock()
	s.reloads.Add(1)
	s.reloadNS.Add(int64(time.Since(start)))
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

// reloadFailed wraps a failed reload of minute m's segment as a
// durability fault (HTTP 503). A failed read is reported by its cause
// alone, so the message names the minute and the kind of failure but
// not the server's segment path.
func reloadFailed(m int64, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		err = fmt.Errorf("reading segment: %s: %w", pe.Op, pe.Err)
	}
	return fmt.Errorf("%w: minute %d: segment reload failed: %w", ErrDurability, m, err)
}

// restore fills a new, unpublished shard with a segment's profiles and
// the graph its link lists describe. Each profile the linker admits
// takes the next list; the ones it quarantines (implausible
// trajectories) were quarantined when the segment was written and have
// none. A link section that lists more or fewer nodes than the records
// admit is an error.
func (sh *minuteShard) restore(profiles []*vp.Profile, links [][]int) error {
	node := 0
	for _, p := range profiles {
		var nbs []int
		if node < len(links) {
			nbs = links[node]
		}
		linked, err := sh.builder.StageLinked(p, nbs)
		if err != nil {
			return err
		}
		if linked {
			node++
		} else {
			sh.quarantined++
		}
	}
	if node != len(links) {
		return fmt.Errorf("the link section lists %d nodes, the records admit %d", len(links), node)
	}
	sh.builder.CommitStaged()
	sh.profiles = profiles
	return nil
}

// adoptSegments registers every segment file on disk with the store:
// the minutes become queryable again and their identifiers are
// re-claimed in the index (so WAL replay rejects their records as
// duplicates) without keeping the profiles resident. Recovery calls
// this before replaying the WAL. A minute already resident was loaded
// from a legacy snapshot's store section, which can predate the
// segment; it keeps its in-memory state, dirty, and the next spill
// rewrites the segment.
func (s *Store) adoptSegments() (minutes int, err error) {
	if s.cfg.segmentDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.segmentDir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		// Adopt exact segment names only: Sscanf ignores trailing input,
		// so a crashed spill's minute-M.seg.tmp would pass for minute M.
		var m int64
		if _, err := fmt.Sscanf(e.Name(), "minute-%d.seg", &m); err != nil || e.Name() != segmentName(m) {
			continue
		}
		if s.shard(m) != nil {
			// The resident shard's next spill rewrites the segment and
			// records its epoch.
			s.mu.Lock()
			s.segments[m] = 0
			s.mu.Unlock()
			minutes++
			continue
		}
		profiles, links, err := s.readSegment(m)
		if err != nil {
			return minutes, err
		}
		s.mu.Lock()
		s.segments[m] = uint64(len(links))
		s.mu.Unlock()
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
	ResidentMinutes int `json:"residentMinutes"`
	// ColdResident counts the resident shards that were reloaded from
	// segment files (bounded by the cold LRU cap).
	ColdResident int `json:"coldResident"`
	// EvictedMinutes counts minutes that are only in segment files.
	EvictedMinutes int `json:"evictedMinutes"`
	// Evictions counts shard evictions this process lifetime;
	// EvictionTotalMS is their cumulative wall time (spill + drop) in
	// milliseconds.
	Evictions       int64   `json:"evictions"`
	EvictionTotalMS float64 `json:"evictionTotalMs"`
	// Reloads counts successful segment reloads this process lifetime;
	// ReloadTotalMS is their cumulative wall time (read, decode, restore
	// and install) in milliseconds.
	Reloads       int64   `json:"reloads"`
	ReloadTotalMS float64 `json:"reloadTotalMs"`
}

// RetentionStatsSnapshot reads the current resident/evicted split.
func (s *Store) RetentionStatsSnapshot() RetentionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := RetentionStats{
		ResidentMinutes: len(s.shards),
		Evictions:       s.evictions.Load(),
		EvictionTotalMS: float64(s.evictionNS.Load()) / float64(time.Millisecond),
		Reloads:         s.reloads.Load(),
		ReloadTotalMS:   float64(s.reloadNS.Load()) / float64(time.Millisecond),
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
