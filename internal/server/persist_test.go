package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// newPersistSystem is a bare (non-durable) system for the
// SaveTo/LoadFrom round trips.
func newPersistSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := newPersistSystem(t)
	s := sys.Store()
	trusted := fabricate(t, 0, 41)
	trusted.Trusted = true
	profiles := []int64{42, 43, 44}
	s.Put(trusted)
	for _, seed := range profiles {
		if err := s.Put(fabricate(t, seed%2, seed)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restoredSys := newPersistSystem(t)
	n, err := restoredSys.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d records, want 4", n)
	}
	restored := restoredSys.Store()
	if restored.Len() != s.Len() {
		t.Errorf("Len = %d, want %d", restored.Len(), s.Len())
	}
	if restored.TrustedCount() != 1 {
		t.Errorf("TrustedCount = %d, want 1", restored.TrustedCount())
	}
	got, ok := restored.Get(trusted.ID())
	if !ok || !got.Trusted {
		t.Error("trusted flag must survive the round trip")
	}
	// Profiles still answer linkage queries after the round trip.
	if len(restored.Minute(0)) != len(s.Minute(0)) {
		t.Error("minute index must survive the round trip")
	}
}

// framedRecords builds `u32 length | u8 trusted | wire record` per
// profile from vp.Profile.Marshal, as docs/persistence-format.md
// documents the store stream and segment bodies.
func framedRecords(profiles []*vp.Profile) []byte {
	var out []byte
	for _, p := range profiles {
		rec := p.Marshal()
		out = binary.BigEndian.AppendUint32(out, uint32(len(rec)))
		trusted := byte(0)
		if p.Trusted {
			trusted = 1
		}
		out = append(out, trusted)
		out = append(out, rec...)
	}
	return out
}

// wantSystemStream builds the VMAPSYS1 stream of sys by hand: the store
// section from framedRecords, the bank and board sections from their
// own SaveTo.
func wantSystemStream(t *testing.T, sys *System) []byte {
	t.Helper()
	profiles := sys.store.snapshot()
	store := append([]byte("VMAPDB01"), binary.BigEndian.AppendUint32(nil, uint32(len(profiles)))...)
	store = append(store, framedRecords(profiles)...)
	var bank, board bytes.Buffer
	if err := sys.bank.SaveTo(&bank); err != nil {
		t.Fatal(err)
	}
	if err := sys.evidence.SaveTo(&board); err != nil {
		t.Fatal(err)
	}
	out := []byte("VMAPSYS1")
	for _, sec := range [][]byte{store, bank.Bytes(), board.Bytes()} {
		out = binary.BigEndian.AppendUint64(out, uint64(len(sec)))
		out = append(out, sec...)
	}
	return out
}

// TestPersistFormatPin pins every store-carrying file to the documented
// framing built from vp.Profile.Marshal: System.SaveTo, the durable
// snapshot, and minute segments (written through the store's one
// spill writer), whose link section is built from core.Build's graph
// and whose CRC-32C is computed here. Minute 0 spans several
// recordChunk writes, and the second snapshot and segment are smaller
// than the first, so stale bytes left in a reused buffer would show.
func TestPersistFormatPin(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 0)
	defer sys.Close()
	uploadMinute(t, 0, 40, 91, sys)
	if sec := storeStreamLen(sys.store.snapshot()); sec < 2*recordChunk {
		t.Fatalf("store section is %d bytes; the pin needs more than two chunks", sec)
	}

	var got bytes.Buffer
	if err := sys.SaveTo(&got); err != nil {
		t.Fatal(err)
	}
	if want := wantSystemStream(t, sys); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("System.SaveTo wrote %d bytes, the documented framing is %d", got.Len(), len(want))
	}

	snapPath := filepath.Join(dir, "ingest.wal.snap")
	checkSnapshot := func(stage string) {
		t.Helper()
		if err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("VMAPCKP1"), binary.BigEndian.AppendUint64(nil, sys.DurabilityStatsSnapshot().SnapshotLSN)...)
		want = append(want, wantSystemStream(t, sys)...)
		if !bytes.Equal(data, want) {
			t.Fatalf("%s snapshot is %d bytes, the documented framing is %d", stage, len(data), len(want))
		}
	}
	checkSnapshot("first")

	st := sys.Store()
	checkSegment := func(m int64) {
		t.Helper()
		sh := st.shard(m)
		sh.mu.Lock()
		profiles := append([]*vp.Profile(nil), sh.profiles...)
		links := sh.builder.LowerLinks()
		sh.mu.Unlock()
		st.spillMu.Lock()
		err := st.writeSegment(m, profiles, links)
		st.spillMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(st.segmentPath(m))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("VMAPSEG2"), binary.BigEndian.AppendUint64(nil, uint64(m))...)
		want = binary.BigEndian.AppendUint32(want, uint32(len(profiles)))
		want = append(want, framedRecords(profiles)...)
		want = append(want, wantLinkSection(t, profiles, m)...)
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
		if !bytes.Equal(data, want) {
			t.Fatalf("minute %d segment is %d bytes, the documented framing is %d", m, len(data), len(want))
		}
	}
	// A quarantined record sits in the segment without a link list.
	if err := sys.UploadVP(implausibleProfile(t, 0, 93).Marshal()); err != nil {
		t.Fatal(err)
	}
	checkSegment(0)

	// Shrink the store — minute 0 leaves for its segment — and add a
	// small minute 1, then pin the snapshot and the spill writer again.
	uploadMinute(t, 1, 6, 92, sys)
	if err := st.evictShard(0); err != nil {
		t.Fatal(err)
	}
	checkSnapshot("second")
	checkSegment(1)
}

// wantLinkSection builds a segment's link section for a minute's
// profiles from a fresh link: core.Build over a site whose coverage
// takes in every plausible profile, each node listing its neighbours
// with smaller ids.
func wantLinkSection(t *testing.T, profiles []*vp.Profile, m int64) []byte {
	t.Helper()
	vm, err := core.Build(profiles, core.BuildConfig{
		Site: durArea.Inflate(1e5), Minute: m, RequirePlausible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plausible := 0
	for _, p := range profiles {
		if p.PlausibleTrajectory() {
			plausible++
		}
	}
	if vm.Len() != plausible {
		t.Fatalf("minute %d: batch viewmap holds %d of %d plausible profiles", m, vm.Len(), plausible)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(vm.Len()))
	for i, adj := range vm.Adj {
		var lower []int
		for _, j := range adj {
			if j < i {
				lower = append(lower, j)
			}
		}
		sort.Ints(lower)
		out = binary.BigEndian.AppendUint32(out, uint32(len(lower)))
		for _, j := range lower {
			out = binary.BigEndian.AppendUint32(out, uint32(j))
		}
	}
	return out
}

func TestLoadFromRejectsGarbage(t *testing.T) {
	sys := newPersistSystem(t)
	if _, err := sys.LoadFrom(bytes.NewReader([]byte("not a state file"))); err == nil {
		t.Error("bad magic should fail")
	}
	// A bare store stream is not a state file: VMAPDB01 appears only as
	// the store section inside VMAPSYS1.
	bare := append([]byte("VMAPDB01"), 0, 0, 0, 0)
	if _, err := sys.LoadFrom(bytes.NewReader(bare)); err == nil {
		t.Error("bare VMAPDB01 stream should fail")
	}
	// Truncated stream after a valid header.
	var buf bytes.Buffer
	good := newPersistSystem(t)
	good.Store().Put(fabricate(t, 0, 50))
	if err := good.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := sys.LoadFrom(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestLoadFromSkipsDuplicates(t *testing.T) {
	sys := newPersistSystem(t)
	sys.Store().Put(fabricate(t, 0, 60))
	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into the same warm system is a no-op, not an error.
	n, err := sys.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("loaded %d duplicates, want 0", n)
	}
}

func TestInvestigatePeriod(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0 has a trusted VP and a civilian; minute 1 has only a
	// civilian (no viewmap possible).
	trusted := fabricate(t, 0, 80)
	trusted.Trusted = true
	sys.Store().Put(trusted)
	sys.Store().Put(fabricate(t, 0, 81))
	sys.Store().Put(fabricate(t, 1, 82))

	site := geo.RectAround(geo.Pt(300, 80), 400)
	reports, err := sys.InvestigatePeriod("tok", site, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if reports[0] == nil {
		t.Error("minute 0 should produce a report")
	}
	if reports[1] != nil {
		t.Error("minute 1 has no trusted VP; report should be nil")
	}

	if _, err := sys.InvestigatePeriod("bad", site, 0, 1); err != ErrUnauthorized {
		t.Error("bad token should be rejected")
	}
	if _, err := sys.InvestigatePeriod("tok", site, 2, 1); err == nil {
		t.Error("empty period should fail")
	}
	if _, err := sys.InvestigatePeriod("tok", site, 0, 100); err == nil {
		t.Error("oversized period should fail")
	}
}
