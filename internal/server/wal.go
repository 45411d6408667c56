package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewmap/internal/obs"
)

// Ingest write-ahead log. Every admitted mutation — VP uploads (single,
// trusted, batch), evidence-board transitions (solicitation open,
// accepted delivery, payout debit), and bank redemptions — is appended
// to a per-process log and fsynced before the caller's request is
// acknowledged, so a crash never loses an acknowledged mutation: the
// recovery path loads the newest snapshot and replays the log tail over
// it (replay is idempotent; see System.applyWALRecord).
//
// On-disk layout: an 8-byte magic followed by records framed as
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//	payload = u64 LSN | u8 record type | body
//
// The CRC covers the whole payload, so a torn or bit-flipped tail —
// the expected state after a crash mid-append — fails the checksum and
// replay stops at the last intact record; the opener truncates the
// file there. Record bodies are type-specific (docs/persistence-format.md
// specifies each byte for byte).
//
// Appends are group-committed: concurrent appenders buffer their
// records under the log lock and a single fsync — batched further by
// the optional sync-interval knob — makes a whole batch of them
// durable at once. Every Append still blocks until its own record is
// synced; the knob trades acknowledgement latency for fsyncs per
// second, never durability.

// walMagic heads a WAL file so arbitrary files are rejected.
var walMagic = [8]byte{'V', 'M', 'A', 'P', 'W', 'A', 'L', '1'}

// WAL record types. The zero value is reserved so a zero-filled torn
// region can never masquerade as a typed record.
const (
	// walRecVP carries one anonymous VP wire record (vp.Marshal).
	walRecVP byte = 1
	// walRecVPTrusted carries one authority VP wire record; the
	// trusted mark is implied by the type.
	walRecVPTrusted byte = 2
	// walRecVPBatch carries one batched upload's raw wire bytes
	// (vp.MarshalBatch framing); replay re-parses them with the same
	// per-record failure policy the live path used.
	walRecVPBatch byte = 3
	// walRecEvidenceOpen carries one solicitation-board posting.
	walRecEvidenceOpen byte = 4
	// walRecEvidenceDeliver carries one accepted evidence delivery.
	walRecEvidenceDeliver byte = 5
	// walRecEvidencePayout carries one payout entitlement debit.
	walRecEvidencePayout byte = 6
	// walRecRedeem carries one redeemed cash unit (desk byte + cash).
	walRecRedeem byte = 7
)

// maxWALRecord bounds one WAL record. The largest legitimate record is
// an accepted evidence delivery (a 64 MB video plus framing); the cap
// is checked on append and again on replay, where the length prefix is
// untrusted input.
const maxWALRecord = 128 << 20

// walFrameOverhead is what framing adds to a record body: u32 payload
// length, u32 CRC, u64 LSN, u8 type.
const walFrameOverhead = 17

// walCRC is the Castagnoli table; CRC-32C has hardware support on the
// platforms the server targets.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// errWALClosed is returned for appends against a closed log.
var errWALClosed = errors.New("server: WAL closed")

// wal is the append side of the ingest log. Safe for concurrent use.
type wal struct {
	path string

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	bw     *bufio.Writer
	next   uint64 // next LSN to assign
	buffed uint64 // last LSN written into bw
	synced uint64 // last LSN known durable
	err    error  // sticky I/O error; the log is dead once set
	closed bool

	// size is the log's length in bytes, counting what is still
	// buffered in bw. offs[i] is the file offset of the record with LSN
	// first+i: the table covers every record appended through this
	// handle (first is the LSN the handle opened at), so compaction
	// finds where the records above a barrier start without reading
	// the file.
	size  int64
	offs  []int64
	first uint64

	interval time.Duration
	syncReq  chan struct{}
	syncDone chan struct{}

	// fsync makes the log file durable; the default is (*os.File).Sync.
	// DurabilityConfig.Fsync replaces it (via setFsync) so fault plans
	// can inject slow-disk stalls on the group-commit path.
	fsync func(*os.File) error

	// metrics, when non-nil, receives the fsync latency and the
	// group-commit batch size of every sync (attached by OpenDurable
	// before the first sync). Its fsync stage is the only count of the
	// log's fsyncs: GET /v1/stats reads durability.fsyncs from it.
	metrics *obs.Registry
}

// setFsync installs a replacement for the file-sync call on the
// group-commit and compaction paths. nil restores the default. Callers
// must install hooks before the log takes appends.
func (w *wal) setFsync(fn func(*os.File) error) {
	if fn == nil {
		fn = (*os.File).Sync
	}
	w.mu.Lock()
	w.fsync = fn
	w.mu.Unlock()
}

// openWALForAppend opens (creating if needed) the log for appending.
// validSize is the byte length of the intact record prefix as
// determined by a prior replay scan (0 for a new or torn-header file);
// anything beyond it — the torn tail of a crashed append — is
// truncated away. nextLSN is one past the last replayed LSN.
func openWALForAppend(path string, validSize int64, nextLSN uint64, interval time.Duration) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if validSize < int64(len(walMagic)) {
		// New file, or a crash tore even the header: start clean.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	w := &wal{
		path:     path,
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<20),
		next:     nextLSN,
		buffed:   nextLSN - 1,
		synced:   nextLSN - 1,
		size:     size,
		first:    nextLSN,
		interval: interval,
		syncReq:  make(chan struct{}, 1),
		syncDone: make(chan struct{}),
		fsync:    (*os.File).Sync,
	}
	w.cond = sync.NewCond(&w.mu)
	go w.syncLoop()
	return w, nil
}

// Append writes one record and blocks until it is durable (buffered,
// flushed, and fsynced — possibly by a group commit covering later
// appenders too). It returns the record's LSN. onAssign, when non-nil,
// runs under the log lock at the moment the LSN is assigned — the
// snapshot barrier registers append-before-commit records through it,
// atomically with the AppendedLSN watermark they become visible in.
func (w *wal) Append(typ byte, body []byte, onAssign func(lsn uint64)) (uint64, error) {
	return w.AppendVec(typ, [][]byte{body}, onAssign)
}

// AppendVec is Append for a record whose body is the concatenation of
// frags. The batch-ingest journal uses it to frame a burst's admitted
// wire records — length prefixes from a scratch buffer interleaved
// with sub-slices of the request body — without first assembling the
// body into one contiguous copy: the fragments stream straight into
// the log's buffered writer, and the CRC accumulates across them.
func (w *wal) AppendVec(typ byte, frags [][]byte, onAssign func(lsn uint64)) (uint64, error) {
	size := 0
	for _, f := range frags {
		size += len(f)
	}
	if size+9 > maxWALRecord {
		return 0, fmt.Errorf("server: WAL record of %d bytes exceeds the %d cap", size, maxWALRecord)
	}
	w.mu.Lock()
	if w.closed || w.err != nil {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = errWALClosed
		}
		return 0, err
	}
	lsn := w.next
	w.next++
	if err := walWriteRecordVec(w.bw, lsn, typ, frags, size); err != nil {
		w.fail(err)
		w.mu.Unlock()
		return 0, err
	}
	w.noteBuffered(lsn, size)
	if onAssign != nil {
		onAssign(lsn)
	}
	// Ask the syncer for durability, still under the lock: Close/abort
	// mark the log closed under the same lock before they close the
	// channel, so this send can never hit a closed channel. It is
	// non-blocking — the channel holds at most one pending request,
	// and a whole burst of appenders rides one fsync.
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
	// Wait for our LSN to become durable; cond.Wait releases the lock
	// so the syncer (and other appenders) can proceed.
	defer w.mu.Unlock()
	for w.synced < lsn && w.err == nil {
		w.cond.Wait()
	}
	return lsn, w.err
}

// noteBuffered advances the buffered watermark past record lsn, just
// framed into bw with a bodyLen-byte body, and enters the record's
// offset in the table; callers hold mu.
func (w *wal) noteBuffered(lsn uint64, bodyLen int) {
	w.buffed = lsn
	w.offs = append(w.offs, w.size)
	w.size += walFrameOverhead + int64(bodyLen)
}

// fail records a sticky I/O error and wakes every waiter; callers hold mu.
func (w *wal) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
}

// syncLoop is the group-commit worker: each request flushes and fsyncs
// everything buffered so far. A positive interval makes the worker
// linger before syncing so more appenders join the batch.
func (w *wal) syncLoop() {
	for range w.syncReq {
		if w.interval > 0 {
			time.Sleep(w.interval)
		}
		w.mu.Lock()
		w.syncLocked()
		w.mu.Unlock()
	}
	close(w.syncDone)
}

// syncLocked flushes and fsyncs the buffered records; callers hold mu.
func (w *wal) syncLocked() {
	if w.err != nil || w.synced == w.buffed {
		w.cond.Broadcast()
		return
	}
	batch := w.buffed - w.synced
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return
	}
	start := time.Now()
	if err := w.fsync(w.f); err != nil {
		w.fail(err)
		return
	}
	w.metrics.Stage(obs.StageFsync).Record(int64(time.Since(start)))
	w.metrics.WALBatch().Record(int64(batch))
	w.synced = w.buffed
	w.cond.Broadcast()
}

// AppendedLSN returns the LSN of the last buffered record.
func (w *wal) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buffed
}

// SyncedLSN returns the LSN of the last durable record.
func (w *wal) SyncedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// truncateThrough drops every record with LSN <= lsn by compacting the
// log into a fresh file and atomically renaming it into place — the
// snapshotter calls this after a snapshot covering lsn is durable.
//
// The records above the barrier are the byte range from the first
// survivor's offset to the end of the file, so compaction copies that
// range into the fresh log with one io.CopyN. Appends block while it
// copies and runs its fsyncs, rename and directory sync; the tail
// between snapshots is small by construction.
//
// Every record already in the file when this handle opened was
// replayed into the state the first snapshot covers, so it is at or
// below any barrier the snapshotter computes, and the offset table
// covers every record that can survive. A barrier below the handle's
// first LSN breaks that invariant and is refused.
func (w *wal) truncateThrough(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.err != nil {
		if w.err != nil {
			return w.err
		}
		return errWALClosed
	}
	if lsn+1 < w.first {
		return fmt.Errorf("server: WAL compaction barrier %d is below LSN %d, where this log handle opened", lsn, w.first)
	}
	// Make the current tail readable and durable first.
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return err
	}
	if err := w.fsync(w.f); err != nil {
		w.fail(err)
		return err
	}
	w.synced = w.buffed
	w.cond.Broadcast()

	keep := min(lsn+1-w.first, uint64(len(w.offs))) // index of the first survivor
	start := w.size
	if keep < uint64(len(w.offs)) {
		start = w.offs[keep]
	}
	src, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.Seek(start, io.SeekStart); err != nil {
		return err
	}
	tmpPath := w.path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	_, err = tmp.Write(walMagic[:])
	if err == nil {
		_, err = io.CopyN(tmp, src, w.size-start)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	syncDir(filepath.Dir(w.path))
	// Swap the append handle onto the compacted file.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.fail(err)
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		w.fail(err)
		return err
	}
	w.f.Close()
	w.f = nf
	w.bw.Reset(nf)
	// Rebase the offset table onto the compacted file.
	shift := start - int64(len(walMagic))
	w.offs = w.offs[:copy(w.offs, w.offs[keep:])]
	for i := range w.offs {
		w.offs[i] -= shift
	}
	w.size -= shift
	w.first += keep
	return nil
}

// Close flushes, fsyncs, and closes the log. Later appends fail.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.syncLocked()
	err := w.err
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	close(w.syncReq)
	<-w.syncDone
	return err
}

// abort closes the log file without flushing buffered records — the
// crash simulation used by recovery tests and the scenario engine.
// Acknowledged (synced) records are on disk; buffered ones vanish,
// exactly as in a real crash.
func (w *wal) abort() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.fail(errWALClosed)
	w.f.Close()
	w.mu.Unlock()
	close(w.syncReq)
	<-w.syncDone
}

// walWriteRecord frames one record onto w (Append's encoding; replay
// tests build logs with it too).
func walWriteRecord(w io.Writer, lsn uint64, typ byte, body []byte) error {
	return walWriteRecordVec(w, lsn, typ, [][]byte{body}, len(body))
}

// walWriteRecordVec frames one record whose body is the concatenation
// of frags (size = total fragment bytes, precomputed by the caller).
func walWriteRecordVec(w io.Writer, lsn uint64, typ byte, frags [][]byte, size int) error {
	var hdr [walFrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(9+size))
	binary.BigEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = typ
	crc := crc32.Update(0, walCRC, hdr[8:17])
	for _, f := range frags {
		crc = crc32.Update(crc, walCRC, f)
	}
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, f := range frags {
		if _, err := w.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// walScan reads framed records from r — size is the total byte count
// behind r, including the already-consumed magic — calling fn for each
// intact record in order. It stops without error at the first torn or
// corrupt record (short header, short body, hostile length, CRC
// mismatch): that is the expected crash tail, and valid reports how
// many prefix bytes survived so the opener can truncate there. The
// length prefix is untrusted input (replay also runs inside a fuzz
// target), so body allocation is bounded by the bytes actually
// remaining, never by the claim. An fn error aborts the scan and is
// returned.
func walScan(r io.Reader, size int64, fn func(lsn uint64, typ byte, body []byte) error) (lastLSN uint64, valid int64, err error) {
	valid = int64(len(walMagic))
	remaining := size - valid
	var hdr [8]byte
	for {
		if remaining < int64(len(hdr)) {
			return lastLSN, valid, nil
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return lastLSN, valid, nil
		}
		payloadLen := int64(binary.BigEndian.Uint32(hdr[0:4]))
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		if payloadLen < 9 || payloadLen > maxWALRecord || payloadLen > remaining-int64(len(hdr)) {
			// Hostile or torn length: the claim exceeds what the file
			// actually holds (or the record cap). Nothing is allocated
			// for it.
			return lastLSN, valid, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return lastLSN, valid, nil
		}
		if crc32.Checksum(payload, walCRC) != wantCRC {
			return lastLSN, valid, nil
		}
		lsn := binary.BigEndian.Uint64(payload[0:8])
		if err := fn(lsn, payload[8], payload[9:]); err != nil {
			return lastLSN, valid, err
		}
		lastLSN = lsn
		consumed := int64(len(hdr)) + payloadLen
		valid += consumed
		remaining -= consumed
	}
}

// replayWALFile scans the log at path, calling fn for every intact
// record with LSN > fromLSN. A missing file is a fresh start, not an
// error. It returns the last intact LSN (0 if none), the valid prefix
// length in bytes, and the file's total size.
func replayWALFile(path string, fromLSN uint64, fn func(lsn uint64, typ byte, body []byte) error) (lastLSN uint64, valid, size int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	size = st.Size()
	if size < int64(len(walMagic)) {
		// A crash during creation tore even the header; the opener
		// rewrites it.
		return 0, 0, size, nil
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, 0, size, err
	}
	if magic != walMagic {
		return 0, 0, size, errors.New("server: not a ViewMap WAL file")
	}
	lastLSN, valid, err = walScan(br, size, func(lsn uint64, typ byte, body []byte) error {
		if lsn <= fromLSN {
			return nil
		}
		return fn(lsn, typ, body)
	})
	return lastLSN, valid, size, err
}

// syncDir fsyncs a directory so a just-renamed file inside it survives
// a power cut. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
