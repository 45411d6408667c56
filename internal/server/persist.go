package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"viewmap/internal/vp"
)

// VP database persistence: the store section of the full-system stream
// is a length-prefixed stream of VP wire records (the same anonymous
// format vehicles upload), each preceded by a one-byte trusted flag —
// the only server-side annotation. The format deliberately contains
// nothing else: the on-disk database is exactly as anonymous as the
// in-memory one.

// persistMagic heads the store section's VP record stream.
var persistMagic = [8]byte{'V', 'M', 'A', 'P', 'D', 'B', '0', '1'}

// recordWriter frames VP records as `u32 wire length | u8 trusted flag
// | wire record`, the framing the store stream and the minute segments
// share. It marshals every profile straight into one reused buffer and
// hands that buffer to the destination in recordChunk-sized writes, so
// a writer kept across uses (the store keeps one for its segment
// spills) allocates nothing once its buffer has grown. Not safe for
// concurrent use.
type recordWriter struct {
	buf []byte
}

// recordChunk is how many framed bytes a recordWriter gathers before
// one Write: a minute's segment leaves in a handful of system calls,
// and the buffer the store keeps between spills stays small.
const recordChunk = 64 << 10

// write writes head (the format's fixed header) followed by the framed
// records of profiles to w, returning the bytes written.
func (rw *recordWriter) write(w io.Writer, head []byte, profiles []*vp.Profile) (int64, error) {
	var written int64
	buf := append(rw.buf[:0], head...)
	for _, p := range profiles {
		var trusted byte
		if p.Trusted {
			trusted = 1
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.WireLen()))
		buf = append(buf, trusted)
		buf = p.AppendMarshal(buf)
		if len(buf) >= recordChunk {
			n, err := w.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
			buf = buf[:0]
		}
	}
	n, err := w.Write(buf)
	rw.buf = buf[:0]
	return written + int64(n), err
}

// storeStreamLen returns the byte length of the VMAPDB01 stream of
// profiles, computed from each profile's fixed wire length.
func storeStreamLen(profiles []*vp.Profile) int64 {
	n := int64(len(persistMagic) + 4)
	for _, p := range profiles {
		n += 5 + int64(p.WireLen())
	}
	return n
}

// saveSection streams the database as the store section of the
// full-system stream: the u64 section length, computed up front from
// the profiles' wire lengths, then the VMAPDB01 stream. The section is
// never assembled in memory.
func (s *Store) saveSection(w io.Writer) error {
	profiles := s.snapshot()
	size := storeStreamLen(profiles)
	var head [20]byte
	binary.BigEndian.PutUint64(head[:8], uint64(size))
	copy(head[8:], persistMagic[:])
	binary.BigEndian.PutUint32(head[16:], uint32(len(profiles)))
	written, err := new(recordWriter).write(w, head[:], profiles)
	if err == nil && written != 8+size {
		// The prefix promised a length the stream did not deliver; the
		// state file would not load, so fail the save instead.
		err = fmt.Errorf("server: store section wrote %d bytes, its prefix promised %d", written-8, size)
	}
	return err
}

// loadSection ingests the VMAPDB01 stream of a store section written
// by saveSection, validating every record as if it were a fresh upload.
// Records already present are skipped; any other validation failure
// aborts the load.
func (s *Store) loadSection(r io.Reader) (loaded int, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("server: reading database header: %w", err)
	}
	if magic != persistMagic {
		return 0, errors.New("server: not a ViewMap database file")
	}
	var countBuf [4]byte
	if _, err := io.ReadFull(r, countBuf[:]); err != nil {
		return 0, err
	}
	count := binary.BigEndian.Uint32(countBuf[:])
	for i := uint32(0); i < count; i++ {
		var hdr [5]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return loaded, fmt.Errorf("server: record %d header: %w", i, err)
		}
		size := binary.BigEndian.Uint32(hdr[:4])
		if size > 1<<20 {
			return loaded, fmt.Errorf("server: record %d claims %d bytes", i, size)
		}
		rec := make([]byte, size)
		if _, err := io.ReadFull(r, rec); err != nil {
			return loaded, fmt.Errorf("server: record %d body: %w", i, err)
		}
		p, err := vp.Unmarshal(rec)
		if err != nil {
			return loaded, fmt.Errorf("server: record %d: %w", i, err)
		}
		p.Trusted = hdr[4] == 1
		switch err := s.Put(p); {
		case err == nil:
			loaded++
		case errors.Is(err, ErrDuplicate):
			// Re-loading over a warm store is fine.
		default:
			return loaded, fmt.Errorf("server: record %d: %w", i, err)
		}
	}
	return loaded, nil
}

// Full-system persistence: one file carrying the VP database, the
// reward bank (blind-signing keypair + double-spend ledger), and the
// evidence board (solicitations, accepted deliveries, payout
// entitlements). Restoring it resumes the whole service: units minted
// before the restart still verify, spent units stay spent, open
// solicitations stay open, and accepted evidence stays releasable.

// systemMagic heads a full-system state file.
var systemMagic = [8]byte{'V', 'M', 'A', 'P', 'S', 'Y', 'S', '1'}

// maxSection bounds one state section; the VP store dominates and a
// million stored VPs is ~5 GB, far above any test or demo deployment.
const maxSection = int64(8) << 30

// writeSection writes one length-prefixed section, assembling it in
// memory to learn its length. The bank and board sections use it; the
// store section is streamed (Store.saveSection).
func writeSection(w io.Writer, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readSection reads one length-prefixed section into memory. The
// length prefix is untrusted input (state files cross trust
// boundaries: operators restore files they did not write), so the
// buffer grows only as bytes actually arrive — a crafted prefix
// claiming gigabytes against a short stream errors out after reading
// what is really there instead of allocating the claim up front.
func readSection(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint64(hdr[:])
	if int64(size) < 0 || int64(size) > maxSection {
		return nil, fmt.Errorf("server: section claims %d bytes", size)
	}
	var buf bytes.Buffer
	// Pre-grow up to a modest cap: sections that fit it (typical test
	// and demo deployments) get one allocation, while a hostile prefix
	// can demand at most the cap before truncation cuts it short.
	const growCap = 1 << 20
	if int64(size) < growCap {
		buf.Grow(int(size))
	} else {
		buf.Grow(growCap)
	}
	n, err := io.CopyN(&buf, r, int64(size))
	if err != nil {
		return nil, fmt.Errorf("server: section truncated at %d of %d bytes: %w", n, size, err)
	}
	return buf.Bytes(), nil
}

// SaveTo streams the full system state — store, bank, evidence board
// — to w. Each subsystem snapshots itself consistently; the three
// sections are cut in sequence, so a save racing ongoing traffic may
// observe, say, a delivery whose VP arrived just before the store
// section was cut — the same guarantee a crash-stop would give.
func (sys *System) SaveTo(w io.Writer) error {
	if _, err := w.Write(systemMagic[:]); err != nil {
		return err
	}
	if err := sys.store.saveSection(w); err != nil {
		return fmt.Errorf("server: saving store: %w", err)
	}
	if err := writeSection(w, sys.bank.SaveTo); err != nil {
		return fmt.Errorf("server: saving bank: %w", err)
	}
	if err := writeSection(w, sys.evidence.SaveTo); err != nil {
		return fmt.Errorf("server: saving evidence board: %w", err)
	}
	return nil
}

// LoadFrom restores state written by SaveTo into this (freshly
// constructed) system. Call before serving traffic — the bank keypair
// is replaced in place.
func (sys *System) LoadFrom(r io.Reader) (vps int, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("server: reading state header: %w", err)
	}
	if magic != systemMagic {
		return 0, errors.New("server: not a ViewMap state file")
	}
	storeSec, err := readSection(r)
	if err != nil {
		return 0, fmt.Errorf("server: store section: %w", err)
	}
	if vps, err = sys.store.loadSection(bytes.NewReader(storeSec)); err != nil {
		return vps, err
	}
	bankSec, err := readSection(r)
	if err != nil {
		return vps, fmt.Errorf("server: bank section: %w", err)
	}
	if err := sys.bank.LoadFrom(bytes.NewReader(bankSec)); err != nil {
		return vps, err
	}
	evSec, err := readSection(r)
	if err != nil {
		return vps, fmt.Errorf("server: evidence section: %w", err)
	}
	if err := sys.evidence.LoadFrom(bytes.NewReader(evSec)); err != nil {
		return vps, err
	}
	return vps, nil
}
