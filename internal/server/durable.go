package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewmap/internal/geo"
	"viewmap/internal/obs"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// Durable continuous operation. A plain NewSystem keeps everything in
// memory and persists nothing; OpenDurable layers three mechanisms
// under the same System so it can run indefinitely:
//
//   - every admitted mutation is appended (and fsynced, group-
//     committed) to the ingest WAL before the request is acknowledged
//     — the ack-after-append invariant;
//   - a background checkpoint periodically spills every minute that
//     changed to its segment file (retention.go), snapshots the covered
//     LSN, the bank and the board, and truncates the WAL through that
//     LSN, so the log never grows without bound and recovery replays
//     only a short tail;
//   - minute-window retention evicts shards older than the horizon,
//     so resident memory is bounded by the horizon plus the cold LRU.
//
// Recovery = load the newest snapshot, adopt the segment files, replay
// the WAL tail (idempotent: duplicate-ID rejection for VPs, state
// guards for board transitions, the spent ledger for cash), tolerate a
// torn final record. docs/operations.md covers the operator view;
// docs/persistence-format.md the bytes.

// DurabilityConfig parameterizes OpenDurable.
type DurabilityConfig struct {
	// WALPath is the ingest log file. Required. The snapshot and the
	// segment directory default to sibling paths derived from it.
	WALPath string
	// SnapshotPath is the snapshot file (covered LSN, bank, board);
	// empty selects WALPath + ".snap".
	SnapshotPath string
	// SegmentDir holds evicted minute segments; empty selects
	// WALPath + ".segments".
	SegmentDir string
	// SyncInterval is the group-commit window: how long the WAL syncer
	// may linger collecting more appends before one fsync makes them
	// all durable. Zero syncs as soon as a record is buffered. Larger
	// values trade acknowledgement latency for fewer fsyncs per
	// second, never durability — every ack still waits for its fsync.
	SyncInterval time.Duration
	// SnapshotInterval is the background checkpoint period; zero
	// disables the snapshotter (Checkpoint can still be called
	// manually, and Close runs a final one).
	SnapshotInterval time.Duration
	// RetentionMinutes is the resident minute horizon: shards older than
	// the newest ingested minute minus this many minutes are evicted to
	// their segment files (Store.ApplyRetention). Zero keeps every minute
	// resident once loaded.
	RetentionMinutes int
	// ResidentColdMinutes bounds reloaded cold minutes (LRU); zero
	// selects 2.
	ResidentColdMinutes int
	// RetentionInterval is how often the evictor sweeps; zero selects
	// one second. Ignored when RetentionMinutes is zero.
	RetentionInterval time.Duration
	// Fsync, when non-nil, replaces the file-sync call on the WAL's
	// group-commit and compaction paths. It is a fault-injection seam:
	// scenario fault plans wrap the real (*os.File).Sync with slow-disk
	// stalls. A replacement must still make the file durable (or
	// return an error) before returning — the ack-after-fsync
	// invariant rides on it. nil selects (*os.File).Sync.
	Fsync func(f *os.File) error
}

// withDefaults resolves the derived paths and periods.
func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotPath == "" {
		c.SnapshotPath = c.WALPath + ".snap"
	}
	if c.SegmentDir == "" {
		c.SegmentDir = c.WALPath + ".segments"
	}
	if c.RetentionInterval <= 0 {
		c.RetentionInterval = time.Second
	}
	return c
}

// ErrDurability is returned (and mapped to 503) when a mutation cannot
// be made durable; the mutation is not acknowledged.
var ErrDurability = errors.New("server: durability log unavailable")

// snapshotMagic heads a durable snapshot: the covered LSN followed by
// the full-system state stream (systemMagic).
var snapshotMagic = [8]byte{'V', 'M', 'A', 'P', 'C', 'K', 'P', '1'}

// inflightLSNs tracks append-before-commit records between their WAL
// append and their store commit. The snapshot barrier must stay below
// every such record: the checkpoint's segments cannot contain the
// mutation yet, so truncating its record would lose an
// (about-to-be-)acknowledged batch.
type inflightLSNs struct {
	mu  sync.Mutex
	set map[uint64]struct{}
}

func (t *inflightLSNs) add(lsn uint64) {
	t.mu.Lock()
	if t.set == nil {
		t.set = make(map[uint64]struct{})
	}
	t.set[lsn] = struct{}{}
	t.mu.Unlock()
}

func (t *inflightLSNs) done(lsn uint64) {
	t.mu.Lock()
	delete(t.set, lsn)
	t.mu.Unlock()
}

// barrier returns the highest LSN safe to snapshot through: one below
// the lowest in-flight record, or appended when none are in flight.
func (t *inflightLSNs) barrier(appended uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	low := appended + 1
	for lsn := range t.set {
		if lsn < low {
			low = lsn
		}
	}
	if low <= appended {
		return low - 1
	}
	return appended
}

// durabilityRuntime is the per-System state of durable operation.
type durabilityRuntime struct {
	cfg      DurabilityConfig
	inflight inflightLSNs
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// checkpointMu serializes checkpoints (the background loop, a manual
	// Checkpoint, and Close share one snapshot temp path).
	checkpointMu sync.Mutex

	mu          sync.Mutex
	snapshots   int
	snapshotLSN uint64
	replayed    int
	lastErr     error
	// snapshotTime / lastSnapshotTime track cumulative and most-recent
	// Checkpoint wall time for the stats surface.
	snapshotTime     time.Duration
	lastSnapshotTime time.Duration
}

// OpenDurable builds a System for indefinite operation: it recovers
// whatever state the durability directory holds (newest snapshot +
// segment files + WAL tail), opens the WAL for appending, writes a
// bootstrap snapshot when none existed (so the bank keypair is durable
// before the first unit is minted), and starts the snapshotter and
// retention goroutines. Stop it with Close (graceful: final
// checkpoint) or Abort (crash simulation).
func OpenDurable(cfg Config, dcfg DurabilityConfig) (*System, error) {
	if dcfg.WALPath == "" {
		return nil, errors.New("server: durability needs a WAL path")
	}
	dcfg = dcfg.withDefaults()
	if err := os.MkdirAll(filepath.Dir(dcfg.WALPath), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dcfg.SegmentDir, 0o755); err != nil {
		return nil, err
	}
	cfg.Store.segmentDir = dcfg.SegmentDir
	cfg.Store.retentionMinutes = dcfg.RetentionMinutes
	cfg.Store.residentColdMinutes = dcfg.ResidentColdMinutes
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.durable = &durabilityRuntime{cfg: dcfg, stop: make(chan struct{})}

	// Recovery, phase 1: the newest snapshot. A crash mid-write leaves
	// only a .tmp file, which is ignored — the rename is the commit.
	snapLSN, haveSnap, err := sys.loadSnapshot(dcfg.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot: %w", err)
	}
	// Phase 2: adopt the minute segments (registers their identifiers so
	// WAL replay rejects their records as duplicates).
	if _, err := sys.store.adoptSegments(); err != nil {
		return nil, fmt.Errorf("server: adopting segments: %w", err)
	}
	// Phase 3: replay the WAL tail over the snapshot. Torn or corrupt
	// trailing bytes end the replay; the opener truncates them away.
	replayed := 0
	lastLSN, valid, _, err := replayWALFile(dcfg.WALPath, snapLSN, func(lsn uint64, typ byte, body []byte) error {
		replayed++
		return sys.applyWALRecord(typ, body)
	})
	if err != nil {
		return nil, fmt.Errorf("server: replaying WAL: %w", err)
	}
	if lastLSN < snapLSN {
		// The snapshot is ahead of every surviving WAL record (the log
		// was truncated through snapLSN); keep LSNs monotone.
		lastLSN = snapLSN
	}
	sys.durable.replayed = replayed
	sys.durable.snapshotLSN = snapLSN

	w, err := openWALForAppend(dcfg.WALPath, valid, lastLSN+1, dcfg.SyncInterval)
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL: %w", err)
	}
	w.setFsync(dcfg.Fsync)
	w.metrics = sys.metrics
	sys.wal = w

	if !haveSnap {
		// Bootstrap snapshot: the bank keypair must be durable before
		// any acknowledgement references it.
		if err := sys.Checkpoint(); err != nil {
			w.Close()
			return nil, fmt.Errorf("server: bootstrap snapshot: %w", err)
		}
	}

	sys.durable.wg.Add(1)
	go sys.snapshotLoop()
	if dcfg.RetentionMinutes > 0 {
		sys.durable.wg.Add(1)
		go sys.retentionLoop()
	}
	return sys, nil
}

// loadSnapshot restores the snapshot at path, returning the LSN it
// covers. A missing file is a fresh start.
func (sys *System) loadSnapshot(path string) (lsn uint64, ok bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, false, fmt.Errorf("snapshot header: %w", err)
	}
	if [8]byte(hdr[:8]) != snapshotMagic {
		return 0, false, errors.New("not a ViewMap snapshot file")
	}
	lsn = binary.BigEndian.Uint64(hdr[8:])
	if _, err := sys.loadFrom(br); err != nil {
		return 0, false, err
	}
	return lsn, true, nil
}

// Checkpoint spills every resident minute that changed since its last
// spill to its segment file, writes the snapshot — the barrier LSN, the
// bank and the evidence board — to the snapshot path (temp file, fsync,
// atomic rename), then truncates the WAL through that LSN. The
// snapshotter calls this on its interval; tests and the scenario
// engine call it directly.
func (sys *System) Checkpoint() error {
	if sys.wal == nil {
		return errors.New("server: system is not durable")
	}
	d := sys.durable
	d.checkpointMu.Lock()
	defer d.checkpointMu.Unlock()
	start := time.Now()
	lsn := d.inflight.barrier(sys.wal.AppendedLSN())
	// Every record through the barrier has committed, so the spilled
	// segments hold it; a later one they hold too replays as a duplicate.
	if err := sys.store.spillResident(); err != nil {
		return err
	}
	path := d.cfg.SnapshotPath
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = func() error {
		var hdr [16]byte
		copy(hdr[:8], snapshotMagic[:])
		binary.BigEndian.PutUint64(hdr[8:], lsn)
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		// Every section reaches the file in one write of its own, so no
		// buffered writer sits in between.
		if err := sys.saveTo(f); err != nil {
			return err
		}
		return f.Sync()
	}()
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
	syncDir(filepath.Dir(path))
	if err := sys.wal.truncateThrough(lsn); err != nil {
		return err
	}
	elapsed := time.Since(start)
	d.mu.Lock()
	d.snapshots++
	d.snapshotLSN = lsn
	d.snapshotTime += elapsed
	d.lastSnapshotTime = elapsed
	d.mu.Unlock()
	return nil
}

// snapshotLoop runs Checkpoint on the configured interval.
func (sys *System) snapshotLoop() {
	d := sys.durable
	defer d.wg.Done()
	if d.cfg.SnapshotInterval <= 0 {
		return
	}
	t := time.NewTicker(d.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			sys.noteDurabilityErr(sys.Checkpoint())
		}
	}
}

// retentionLoop sweeps old shards to disk on the configured interval.
func (sys *System) retentionLoop() {
	d := sys.durable
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.RetentionInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			_, err := sys.store.ApplyRetention()
			sys.noteDurabilityErr(err)
		}
	}
}

// noteDurabilityErr records the most recent background failure for the
// stats surface.
func (sys *System) noteDurabilityErr(err error) {
	if err == nil {
		return
	}
	d := sys.durable
	d.mu.Lock()
	d.lastErr = err
	d.mu.Unlock()
}

// Close stops the durability goroutines, runs a final checkpoint, and
// closes the WAL. The System must not serve traffic afterwards.
func (sys *System) Close() error {
	if sys.wal == nil {
		sys.store.Close()
		return nil
	}
	d := sys.durable
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
	err := sys.Checkpoint()
	if cerr := sys.wal.Close(); err == nil {
		err = cerr
	}
	sys.store.Close()
	return err
}

// Abort simulates a crash: the durability goroutines stop and the WAL
// file handle is closed without flushing — acknowledged records are on
// disk (every ack waited for its fsync), unacknowledged buffered ones
// vanish. No final checkpoint runs. Recovery tests and the
// scenario engine restart from the same directory afterwards.
func (sys *System) Abort() {
	if sys.wal == nil {
		return
	}
	d := sys.durable
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
	sys.wal.abort()
	sys.store.Close()
}

// CrashAppendAbort simulates a power cut in the exact window the
// ack-after-append contract must cover: each batch (vp.MarshalBatch
// wire bytes) is appended to the WAL as the live batch path would
// journal it, and then the process state is aborted before any of the
// records commit to a shard. The records exist only in the log — a
// following OpenDurable must replay them into the store. Fault
// harnesses (the scenario engine's crash-and-recover family, the
// recovery-matrix tests) use this to crash a system mid-upload
// deterministically; it errors on a non-durable system.
func (sys *System) CrashAppendAbort(batches [][]byte) error {
	if sys.wal == nil {
		return errors.New("server: system is not durable")
	}
	for _, b := range batches {
		if _, err := sys.wal.Append(walRecVPBatch, b, nil); err != nil {
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	sys.Abort()
	return nil
}

// journalIngest appends an upload's admitted wire records on the
// append-before-commit path and registers the record with the snapshot
// barrier. Anonymous records go out as one walRecVPBatch record,
// re-framed with the batch wire format (a single upload is a batch of
// one); a trusted upload's lone record goes out as walRecVPTrusted.
// Either way the fragments alias the request body, so the journal
// write copies nothing. The append-through-group-commit wall time
// lands in the WAL-append stage histogram and on tr. The returned
// release must be called once the store commit (or its failure) is
// final. On a non-durable system both halves are no-ops.
func (sys *System) journalIngest(recs [][]byte, trusted bool, tr *obs.Trace) (release func(), err error) {
	if sys.wal == nil {
		return func() {}, nil
	}
	typ, frags := walRecVPBatch, batchWireFrags(recs)
	if trusted {
		typ, frags = walRecVPTrusted, recs[:1]
	}
	start := time.Now()
	var lsn uint64
	_, err = sys.wal.AppendVec(typ, frags, func(l uint64) {
		lsn = l
		sys.durable.inflight.add(l)
	})
	d := time.Since(start)
	sys.metrics.Stage(obs.StageWALAppend).Record(int64(d))
	tr.Observe(obs.StageWALAppend, d)
	if err != nil {
		if lsn != 0 {
			sys.durable.inflight.done(lsn)
		}
		return nil, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return func() { sys.durable.inflight.done(lsn) }, nil
}

// journalCommitted appends a record for a mutation that is already
// committed in memory (the commit-before-append path: board and bank
// transitions, whose replay is idempotent by construction). The
// mutation is only acknowledged once this returns.
func (sys *System) journalCommitted(typ byte, body []byte) error {
	if sys.wal == nil {
		return nil
	}
	if _, err := sys.wal.Append(typ, body, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// applyWALRecord replays one log record onto the system. Replay is
// idempotent: records whose effect is already present (restored from
// the snapshot, or applied by an earlier pass) are silently skipped,
// so recovery can always replay the full surviving tail. A body that
// fails to decode aborts recovery — the framing CRC already passed, so
// this is a version mismatch, not corruption.
func (sys *System) applyWALRecord(typ byte, body []byte) error {
	switch typ {
	case walRecVP, walRecVPTrusted:
		// Single-record types: walRecVP only in logs written before
		// uploads were journaled as batches, walRecVPTrusted for every
		// authority upload.
		p, err := vp.Unmarshal(body)
		if err != nil {
			return fmt.Errorf("VP record: %w", err)
		}
		p.Trusted = typ == walRecVPTrusted
		sys.replayVPs([]*vp.Profile{p})
	case walRecVPBatch:
		records, err := vp.SplitBatch(body, maxBatchRecords)
		if err != nil {
			return fmt.Errorf("batch record: %w", err)
		}
		ps := make([]*vp.Profile, 0, len(records))
		for _, rec := range records {
			if p, err := vp.Unmarshal(rec); err == nil {
				ps = append(ps, p) // else rejected on the live path too
			}
		}
		sys.replayVPs(ps)
	case walRecEvidenceOpen:
		site, minute, units, ids, err := decodeEvidenceOpen(body)
		if err != nil {
			return err
		}
		sys.evidence.Open(site, minute, ids, units) // merge is idempotent
	case walRecEvidenceDeliver:
		id, chunks, err := decodeEvidenceDeliver(body)
		if err != nil {
			return err
		}
		sys.evidence.ReplayDeliver(id, chunks)
	case walRecEvidencePayout:
		id, remaining, err := decodeEvidencePayout(body)
		if err != nil {
			return err
		}
		sys.evidence.ReplayPayout(id, remaining)
	case walRecRedeem:
		desk, cash, err := decodeRedeem(body)
		if err != nil {
			return err
		}
		// Double spends and foreign-key signatures replay to a no-op.
		// Desk-0 burns (older logs) must reach the shared ledger too, or
		// a unit spent at the removed desk could be spent again.
		if desk == redeemDeskEvidence {
			sys.evidence.Redeem(cash)
		} else {
			sys.bank.Redeem(cash)
		}
	default:
		return fmt.Errorf("unknown WAL record type %d", typ)
	}
	return nil
}

// replayVPs commits replayed profiles as one burst per minute.
// Validation failures and duplicates replay their original outcome —
// neither is an error here — and, counted when first admitted, do not
// advance the attack-facing counters again.
func (sys *System) replayVPs(ps []*vp.Profile) {
	valid := ps[:0]
	for _, p := range ps {
		if p.Validate() == nil {
			valid = append(valid, p)
		}
	}
	sys.store.commit(valid, false, nil)
}

// Redeem desks for walRecRedeem records. New records name the
// evidence desk; desk 0 is the removed legacy reward desk, whose
// records replay into the bank's ledger.
const (
	redeemDeskRemoved  byte = 0
	redeemDeskEvidence byte = 1
)

// System implements evidence.Journal: the evidence service calls these
// at each commit point and only acknowledges once the record is
// durable. All four are no-ops on a non-durable system.

// JournalOpen logs a solicitation posting.
func (sys *System) JournalOpen(site geo.Rect, minute int64, units int, ids []vd.VPID) error {
	return sys.journalCommitted(walRecEvidenceOpen, encodeEvidenceOpen(site, minute, units, ids))
}

// JournalDeliver logs an accepted delivery's bytes.
func (sys *System) JournalDeliver(id vd.VPID, chunks [][]byte) error {
	return sys.journalCommitted(walRecEvidenceDeliver, encodeEvidenceDeliver(id, chunks))
}

// JournalPayout logs the entitlement remaining after a payout debit.
func (sys *System) JournalPayout(id vd.VPID, remaining int) error {
	return sys.journalCommitted(walRecEvidencePayout, encodeEvidencePayout(id, remaining))
}

// JournalRedeem logs a cash unit burned at the evidence desk.
func (sys *System) JournalRedeem(c *reward.Cash) error {
	return sys.journalCommitted(walRecRedeem, encodeRedeem(redeemDeskEvidence, c))
}

// Record body codecs. docs/persistence-format.md specifies each layout;
// the decoders treat the body as untrusted (FuzzWALReplay drives them),
// bounding every allocation by the bytes actually present.

func encodeEvidenceOpen(site geo.Rect, minute int64, units int, ids []vd.VPID) []byte {
	out := make([]byte, 0, 4*8+8+4+4+len(ids)*vd.HashSize)
	for _, f := range []float64{site.Min.X, site.Min.Y, site.Max.X, site.Max.Y} {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(f))
	}
	out = binary.BigEndian.AppendUint64(out, uint64(minute))
	out = binary.BigEndian.AppendUint32(out, uint32(units))
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

func decodeEvidenceOpen(b []byte) (site geo.Rect, minute int64, units int, ids []vd.VPID, err error) {
	const fixed = 4*8 + 8 + 4 + 4
	if len(b) < fixed {
		return site, 0, 0, nil, errors.New("evidence-open record truncated")
	}
	var coords [4]float64
	for i := range coords {
		coords[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
	}
	site = geo.NewRect(geo.Pt(coords[0], coords[1]), geo.Pt(coords[2], coords[3]))
	minute = int64(binary.BigEndian.Uint64(b[32:]))
	units = int(binary.BigEndian.Uint32(b[40:]))
	count := binary.BigEndian.Uint32(b[44:])
	rest := b[fixed:]
	if uint64(count)*vd.HashSize != uint64(len(rest)) {
		return site, 0, 0, nil, errors.New("evidence-open record id count mismatch")
	}
	ids = make([]vd.VPID, count)
	for i := range ids {
		copy(ids[i][:], rest[i*vd.HashSize:])
	}
	return site, minute, units, ids, nil
}

func encodeEvidenceDeliver(id vd.VPID, chunks [][]byte) []byte {
	size := vd.HashSize + 4
	for _, c := range chunks {
		size += 4 + len(c)
	}
	out := make([]byte, 0, size)
	out = append(out, id[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(chunks)))
	for _, c := range chunks {
		out = binary.BigEndian.AppendUint32(out, uint32(len(c)))
		out = append(out, c...)
	}
	return out
}

func decodeEvidenceDeliver(b []byte) (id vd.VPID, chunks [][]byte, err error) {
	if len(b) < vd.HashSize+4 {
		return id, nil, errors.New("evidence-deliver record truncated")
	}
	copy(id[:], b)
	count := binary.BigEndian.Uint32(b[vd.HashSize:])
	b = b[vd.HashSize+4:]
	if count > vd.SegmentSeconds {
		return id, nil, fmt.Errorf("evidence-deliver record claims %d chunks", count)
	}
	chunks = make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return id, nil, errors.New("evidence-deliver chunk truncated")
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return id, nil, fmt.Errorf("evidence-deliver chunk claims %d bytes, %d remain", n, len(b))
		}
		chunks = append(chunks, append([]byte(nil), b[:n]...))
		b = b[n:]
	}
	if len(b) != 0 {
		return id, nil, errors.New("evidence-deliver record has trailing bytes")
	}
	return id, chunks, nil
}

func encodeEvidencePayout(id vd.VPID, remaining int) []byte {
	out := make([]byte, 0, vd.HashSize+4)
	out = append(out, id[:]...)
	return binary.BigEndian.AppendUint32(out, uint32(remaining))
}

func decodeEvidencePayout(b []byte) (id vd.VPID, remaining int, err error) {
	if len(b) != vd.HashSize+4 {
		return id, 0, errors.New("evidence-payout record malformed")
	}
	copy(id[:], b)
	return id, int(binary.BigEndian.Uint32(b[vd.HashSize:])), nil
}

func encodeRedeem(desk byte, c *reward.Cash) []byte {
	sig := c.Sig.Bytes()
	out := make([]byte, 0, 1+4+len(c.M)+4+len(sig))
	out = append(out, desk)
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.M)))
	out = append(out, c.M...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(sig)))
	out = append(out, sig...)
	return out
}

func decodeRedeem(b []byte) (desk byte, c *reward.Cash, err error) {
	if len(b) < 1+4 {
		return 0, nil, errors.New("redeem record truncated")
	}
	desk = b[0]
	b = b[1:]
	mLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(mLen) > uint64(len(b)) {
		return 0, nil, errors.New("redeem record message truncated")
	}
	m := append([]byte(nil), b[:mLen]...)
	b = b[mLen:]
	if len(b) < 4 {
		return 0, nil, errors.New("redeem record signature truncated")
	}
	sigLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(sigLen) != uint64(len(b)) {
		return 0, nil, errors.New("redeem record signature length mismatch")
	}
	return desk, &reward.Cash{M: m, Sig: new(big.Int).SetBytes(b)}, nil
}

// DurabilityStats describe the durable runtime for GET /v1/stats.
type DurabilityStats struct {
	// Enabled reports whether the system runs with a WAL.
	Enabled bool `json:"enabled"`
	// AppendedLSN and SyncedLSN are the log watermarks.
	AppendedLSN uint64 `json:"appendedLSN"`
	SyncedLSN   uint64 `json:"syncedLSN"`
	// SnapshotLSN is the LSN covered by the newest snapshot.
	SnapshotLSN uint64 `json:"snapshotLSN"`
	// Snapshots counts snapshots written this process lifetime.
	Snapshots int `json:"snapshots"`
	// Replayed counts WAL records replayed at the last recovery.
	Replayed int `json:"replayed"`
	// Fsyncs counts group-commit fsyncs; FsyncTotalMS is their
	// cumulative wall time in milliseconds. Both are read from the
	// registry's fsync stage, the series GET /v1/metrics serves as
	// viewmap_ingest_stage_seconds{stage="fsync"}.
	Fsyncs       int64   `json:"fsyncs"`
	FsyncTotalMS float64 `json:"fsyncTotalMs"`
	// SnapshotTotalMS and LastSnapshotMS are the cumulative and
	// most-recent Checkpoint wall times (spills included) in ms.
	SnapshotTotalMS float64 `json:"snapshotTotalMs"`
	LastSnapshotMS  float64 `json:"lastSnapshotMs"`
	// LastError is the most recent background durability failure
	// (empty, and omitted from the wire, when healthy).
	LastError string `json:"lastError,omitempty"`
}

// DurabilityStatsSnapshot reads the durable runtime's counters; the
// zero value on a non-durable system.
func (sys *System) DurabilityStatsSnapshot() DurabilityStats {
	if sys.wal == nil {
		return DurabilityStats{}
	}
	d := sys.durable
	d.mu.Lock()
	st := DurabilityStats{
		Enabled:         true,
		SnapshotLSN:     d.snapshotLSN,
		Snapshots:       d.snapshots,
		Replayed:        d.replayed,
		SnapshotTotalMS: float64(d.snapshotTime) / float64(time.Millisecond),
		LastSnapshotMS:  float64(d.lastSnapshotTime) / float64(time.Millisecond),
	}
	if d.lastErr != nil {
		st.LastError = d.lastErr.Error()
	}
	d.mu.Unlock()
	st.AppendedLSN = sys.wal.AppendedLSN()
	st.SyncedLSN = sys.wal.SyncedLSN()
	fs := sys.metrics.Stage(obs.StageFsync).Snapshot()
	st.Fsyncs = int64(fs.Count)
	st.FsyncTotalMS = float64(fs.Sum) / float64(time.Millisecond)
	return st
}
