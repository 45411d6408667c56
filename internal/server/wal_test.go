package server

// WAL framing tests: round trip, group commit under concurrency, torn
// and hostile tails, and compaction. Crash-recovery of full systems is
// exercised in durable_test.go; this file stays at the log layer.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"viewmap/internal/vp"
)

type walRec struct {
	lsn  uint64
	typ  byte
	body []byte
}

// scanAll replays the log at path from LSN 0 and collects the records.
func scanAll(t *testing.T, path string) []walRec {
	t.Helper()
	var out []walRec
	_, _, _, err := replayWALFile(path, 0, func(lsn uint64, typ byte, body []byte) error {
		out = append(out, walRec{lsn, typ, append([]byte(nil), body...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := openWALForAppend(path, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []walRec{
		{1, walRecVP, []byte("alpha")},
		{2, walRecVPBatch, []byte("")},
		{3, walRecRedeem, bytes.Repeat([]byte{0xAB}, 300)},
	}
	for _, r := range want {
		lsn, err := w.Append(r.typ, r.body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != r.lsn {
			t.Fatalf("append got LSN %d, want %d", lsn, r.lsn)
		}
	}
	if got := w.SyncedLSN(); got != 3 {
		t.Fatalf("synced LSN %d, want 3", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].lsn != want[i].lsn || got[i].typ != want[i].typ || !bytes.Equal(got[i].body, want[i].body) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestWALGroupCommit hammers Append from many goroutines (run it under
// -race): every append must come back with a unique LSN and survive a
// replay, however the group commits batched them.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := openWALForAppend(path, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	lsns := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := w.Append(walRecVP, []byte(fmt.Sprintf("rec-%d", i)), nil)
			if err != nil {
				t.Error(err)
				return
			}
			lsns[i] = lsn
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, lsn := range lsns {
		if lsn == 0 || seen[lsn] {
			t.Fatalf("duplicate or zero LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if got := scanAll(t, path); len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
}

// TestWALTornTail crashes mid-append in three ways — trailing garbage,
// a half-written header, a bit flip inside the last record — and
// checks that replay keeps the intact prefix and the reopened log
// truncates the damage before continuing the sequence.
func TestWALTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(data []byte) []byte
	}{
		{"garbage", func(d []byte) []byte { return append(d, 0xDE, 0xAD, 0xBE) }},
		{"halfHeader", func(d []byte) []byte { return append(d, 0, 0, 0, 42) }},
		{"bitFlip", func(d []byte) []byte { d[len(d)-1] ^= 0x80; return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.wal")
			w, err := openWALForAppend(path, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := w.Append(walRecVP, []byte{byte(i)}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}
			wantIntact := 3
			if tc.name == "bitFlip" {
				wantIntact = 2 // the flip corrupts record 3 itself
			}
			got := scanAll(t, path)
			if len(got) != wantIntact {
				t.Fatalf("replayed %d records after tear, want %d", len(got), wantIntact)
			}
			// Reopen exactly as recovery would: truncate the tear, then
			// append the next record in sequence.
			last, valid, _, err := replayWALFile(path, 0, func(uint64, byte, []byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			w2, err := openWALForAppend(path, valid, last+1, 0)
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := w2.Append(walRecVP, []byte("next"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != last+1 {
				t.Fatalf("resumed at LSN %d, want %d", lsn, last+1)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := scanAll(t, path); len(got) != wantIntact+1 {
				t.Fatalf("after reopen: %d records, want %d", len(got), wantIntact+1)
			}
		})
	}
}

func TestWALTruncateThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := openWALForAppend(path, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := w.Append(walRecVP, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.truncateThrough(3); err != nil {
		t.Fatal(err)
	}
	// The log stays appendable after compaction.
	if lsn, err := w.Append(walRecVP, []byte{6}, nil); err != nil || lsn != 6 {
		t.Fatalf("append after truncate: lsn %d err %v", lsn, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, path)
	wantLSNs := []uint64{4, 5, 6}
	if len(got) != len(wantLSNs) {
		t.Fatalf("got %d records after truncate, want %d", len(got), len(wantLSNs))
	}
	for i, r := range got {
		if r.lsn != wantLSNs[i] {
			t.Fatalf("record %d has LSN %d, want %d", i, r.lsn, wantLSNs[i])
		}
	}
}

// compactBody is the deterministic body of the record with LSN lsn:
// lengths vary so record offsets are irregular, and LSN 3 is empty.
func compactBody(lsn uint64) []byte {
	return bytes.Repeat([]byte{byte(lsn)}, int(lsn*37%300))
}

// walOp is one step of a compaction scenario: append n records
// (odd LSNs through AppendVec in three fragments, even LSNs through
// Append), compact through barrier (wantErr: the log must refuse it),
// or close and reopen the log the way recovery does.
type walOp struct {
	append  int
	compact bool
	barrier uint64
	wantErr bool
	reopen  bool
}

// TestWALCompactByteRange drives byte-range compaction through every
// barrier of a six-record log (nothing, part, or all surviving), after
// a reopen over replayed records, and repeatedly in a row. After every
// step the log must hold exactly the records above the last barrier,
// framed byte for byte as Append wrote them, and the next append must
// continue the LSN sequence.
func TestWALCompactByteRange(t *testing.T) {
	type walCase struct {
		name string
		ops  []walOp
	}
	var cases []walCase
	for b := uint64(0); b <= 6; b++ {
		cases = append(cases, walCase{fmt.Sprintf("barrier%d", b), []walOp{
			{append: 6}, {compact: true, barrier: b}, {append: 2},
		}})
	}
	cases = append(cases,
		walCase{"reopenDropReplayed", []walOp{
			{append: 4}, {reopen: true}, {append: 2}, {compact: true, barrier: 4}, {append: 1},
		}},
		walCase{"reopenPartial", []walOp{
			{append: 4}, {reopen: true}, {append: 3}, {compact: true, barrier: 5}, {append: 1},
		}},
		walCase{"reopenAllDropped", []walOp{
			{append: 4}, {reopen: true}, {append: 2}, {compact: true, barrier: 6}, {append: 1},
		}},
		walCase{"reopenBarrierBelowHandle", []walOp{
			{append: 4}, {reopen: true}, {append: 2}, {compact: true, barrier: 2, wantErr: true}, {append: 1},
		}},
		walCase{"twiceInARow", []walOp{
			{append: 6}, {compact: true, barrier: 2}, {compact: true, barrier: 4}, {append: 2},
			{compact: true, barrier: 4}, {compact: true, barrier: 8}, {append: 1},
		}},
		walCase{"compactedThenReopened", []walOp{
			{append: 5}, {compact: true, barrier: 3}, {reopen: true}, {append: 2},
			{compact: true, barrier: 6}, {append: 1},
		}},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.wal")
			w, err := openWALForAppend(path, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { w.Close() }()
			var want []walRec // the model: records the file must hold
			next := uint64(1)
			for i, op := range tc.ops {
				switch {
				case op.append > 0:
					for j := 0; j < op.append; j++ {
						lsn, body := next, compactBody(next)
						var got uint64
						if lsn%2 == 1 {
							got, err = w.AppendVec(walRecVPBatch, [][]byte{body[:len(body)/3], nil, body[len(body)/3:]}, nil)
						} else {
							got, err = w.Append(walRecRedeem, body, nil)
						}
						if err != nil || got != lsn {
							t.Fatalf("step %d: append got LSN %d err %v, want LSN %d", i, got, err, lsn)
						}
						typ := walRecRedeem
						if lsn%2 == 1 {
							typ = walRecVPBatch
						}
						want = append(want, walRec{lsn, typ, body})
						next++
					}
				case op.compact:
					err := w.truncateThrough(op.barrier)
					if op.wantErr {
						if err == nil {
							t.Fatalf("step %d: barrier %d below the handle's first LSN was accepted", i, op.barrier)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: compacting through %d: %v", i, op.barrier, err)
					}
					kept := want[:0]
					for _, r := range want {
						if r.lsn > op.barrier {
							kept = append(kept, r)
						}
					}
					want = kept
				case op.reopen:
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					_, valid, _, err := replayWALFile(path, 0, func(uint64, byte, []byte) error { return nil })
					if err != nil {
						t.Fatal(err)
					}
					if w, err = openWALForAppend(path, valid, next, 0); err != nil {
						t.Fatal(err)
					}
				}

				frames := bytes.NewBuffer(append([]byte(nil), walMagic[:]...))
				for _, r := range want {
					walWriteRecord(frames, r.lsn, r.typ, r.body)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, frames.Bytes()) {
					t.Fatalf("step %d: log is %d bytes, want the %d-byte framing of %d records", i, len(data), frames.Len(), len(want))
				}
				got := scanAll(t, path)
				if len(got) != len(want) {
					t.Fatalf("step %d: replayed %d records, want %d", i, len(got), len(want))
				}
				for k := range want {
					if got[k].lsn != want[k].lsn || got[k].typ != want[k].typ || !bytes.Equal(got[k].body, want[k].body) {
						t.Fatalf("step %d: record %d is LSN %d type %d, want LSN %d type %d", i, k, got[k].lsn, got[k].typ, want[k].lsn, want[k].typ)
					}
				}
			}
		})
	}
}

// TestWALHostileLength pins the hostile-prefix hardening: a record
// header claiming far more than the file holds is a torn tail, not an
// allocation — replay must return instantly with the intact prefix.
func TestWALHostileLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := openWALForAppend(path, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(walRecVP, []byte("real"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hostile [8]byte
	binary.BigEndian.PutUint32(hostile[0:4], 1<<31) // claims 2 GB
	if _, err := f.Write(hostile[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := scanAll(t, path); len(got) != 1 {
		t.Fatalf("replayed %d records, want the 1 intact one", len(got))
	}
}

// TestWALScanZeroFill covers the crash mode where the filesystem
// extended the file with zeros: a zero length prefix parses as an
// undersized payload and must stop the scan, not loop.
func TestWALScanZeroFill(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 64)) // 64 zero bytes after the (consumed) magic
	last, valid, err := walScan(bufio.NewReader(&buf), 64+8, func(uint64, byte, []byte) error {
		t.Fatal("zero fill must not produce records")
		return nil
	})
	if err != nil || last != 0 || valid != 8 {
		t.Fatalf("got last=%d valid=%d err=%v", last, valid, err)
	}
}

// TestWALAppendVecMatchesAppend pins the vectored append the batch
// path uses for its zero-copy journal: AppendVec over fragments must
// produce a byte-identical log to Append of the concatenation, and
// batchWireFrags must reassemble into exactly vp.MarshalRawBatch — so
// replay of a group-committed burst is indistinguishable from replay
// of the copying path it replaced.
func TestWALAppendVecMatchesAppend(t *testing.T) {
	recs := [][]byte{
		[]byte("first-record"),
		{},
		bytes.Repeat([]byte{0x5C}, 500),
	}
	frags := batchWireFrags(recs)
	var joined []byte
	for _, f := range frags {
		joined = append(joined, f...)
	}
	if want := vp.MarshalRawBatch(recs); !bytes.Equal(joined, want) {
		t.Fatalf("batchWireFrags reassembles to %d bytes, want %d (MarshalRawBatch)", len(joined), len(want))
	}

	dir := t.TempDir()
	vecPath := filepath.Join(dir, "vec.wal")
	refPath := filepath.Join(dir, "ref.wal")
	wv, err := openWALForAppend(vecPath, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := openWALForAppend(refPath, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wv.AppendVec(walRecVPBatch, frags, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Append(walRecVPBatch, joined, nil); err != nil {
		t.Fatal(err)
	}
	if err := wv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	vecBytes, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vecBytes, refBytes) {
		t.Fatalf("vectored append diverges from plain append: %d vs %d bytes", len(vecBytes), len(refBytes))
	}
	if got := scanAll(t, vecPath); len(got) != 1 || !bytes.Equal(got[0].body, joined) {
		t.Fatalf("replay of vectored record diverges")
	}
}
