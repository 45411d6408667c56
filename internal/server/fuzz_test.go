package server

// Native fuzz target for the snapshot decoder: System.loadFrom reads
// the full-system VMAPSYS1 stream every snapshot carries. Operators
// restore snapshots they did not necessarily write, so the decoder
// must never panic and must refuse hostile length prefixes without
// allocating what they claim. The hostile-prefix regressions are
// pinned as unit tests below so they run in every plain `go test`,
// not only under -fuzz.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
)

// savedStates builds the two snapshot bodies the reader accepts over a
// small real population: the current one, whose store section is empty,
// and a legacy one whose store section holds the population's records.
func savedStates(tb testing.TB) (current, legacy []byte) {
	tb.Helper()
	sys, err := NewSystem(Config{AuthorityToken: "seed", Bank: sharedBankInternal(tb)})
	if err != nil {
		tb.Fatal(err)
	}
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 3, Area: area, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	core.MarkTrustedNearest(profiles, area.Center())
	var buf bytes.Buffer
	if err := sys.saveTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), systemStream(tb, sys, profiles)
}

// FuzzSystemLoadFrom hammers the restore path with a real stream plus
// corruptions. Every iteration restores into a fresh system; errors
// are fine, panics and prefix-sized allocations are not.
func FuzzSystemLoadFrom(f *testing.F) {
	current, legacy := savedStates(f)
	for _, system := range [][]byte{current, legacy} {
		f.Add(system)
		f.Add(system[:28])             // through the store section's record count
		f.Add(system[:len(system)-10]) // evidence section cut short
	}
	f.Add(current[:8])
	f.Add([]byte("VMAPSYS1"))
	hostile := append([]byte(nil), current[:8]...)
	hostile = binary.BigEndian.AppendUint64(hostile, 1<<40) // section claims 1 TB
	f.Add(hostile)
	f.Add(hostileRecordState())
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := NewSystem(Config{AuthorityToken: "fuzz", Bank: sharedBankInternal(t)})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := sys.loadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if loaded != sys.Store().Len() {
			t.Fatalf("loadFrom reported %d profiles, store holds %d", loaded, sys.Store().Len())
		}
	})
}

// TestLoadFromHostileSectionLength pins the fix for the snapshot
// decoder's worst input: a section header claiming terabytes against
// a stream holding a handful of bytes must error after reading what
// is actually there — never allocate the claim.
func TestLoadFromHostileSectionLength(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	// A claim over the hard section cap is refused outright.
	over := []byte("VMAPSYS1")
	over = binary.BigEndian.AppendUint64(over, 1<<40)
	over = append(over, "only a few real bytes"...)
	if _, err := sys.loadFrom(bytes.NewReader(over)); err == nil {
		t.Fatal("section claiming 1 TB must not load")
	}
	// A claim under the cap but far beyond the stream must fail on
	// the truncated read — the buffer grows only with arriving bytes,
	// so this returns in microseconds instead of allocating 4 GB.
	under := []byte("VMAPSYS1")
	under = binary.BigEndian.AppendUint64(under, 1<<32)
	under = append(under, "only a few real bytes"...)
	if _, err := sys.loadFrom(bytes.NewReader(under)); err == nil {
		t.Fatal("section claiming 4 GB against 21 real bytes must not load")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// hostileRecordState is a VMAPSYS1 stream whose store section holds
// one record claiming 1 GB.
func hostileRecordState() []byte {
	store := []byte("VMAPDB01")
	store = binary.BigEndian.AppendUint32(store, 1) // one record
	store = binary.BigEndian.AppendUint32(store, 1<<30)
	store = append(store, 0) // trusted flag
	data := []byte("VMAPSYS1")
	data = binary.BigEndian.AppendUint64(data, uint64(len(store)))
	return append(data, store...)
}

// TestLoadFromHostileRecordLength does the same for one record inside
// the store section: a record claiming more than the 1 MB cap is
// refused by the length check before any allocation.
func TestLoadFromHostileRecordLength(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.loadFrom(bytes.NewReader(hostileRecordState())); err == nil || !strings.Contains(err.Error(), "record 0 claims") {
		t.Fatalf("record claiming 1 GB: got %v, want the record-length refusal", err)
	}
}
