package server

// Native fuzz target for the WAL replay path: the record stream is
// untrusted input at recovery time (a crash can tear it anywhere, and
// operators can point the server at files they did not write), so the
// framing scanner and every record-body decoder must never panic and
// never allocate what a hostile length prefix claims. Wired into
// `make fuzz` alongside the other decoder targets.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// walSeedStream frames a representative record of every type into one
// valid post-magic WAL stream.
func walSeedStream(tb testing.TB) []byte {
	tb.Helper()
	own := recordDurOwner(tb, 0, 23)
	var buf bytes.Buffer
	records := []struct {
		typ  byte
		body []byte
	}{
		{walRecVP, own.p.Marshal()},
		{walRecVPTrusted, own.p.Marshal()},
		{walRecVPBatch, vp.MarshalBatch([]*vp.Profile{own.p})},
		{walRecEvidenceOpen, encodeEvidenceOpen(durSite, 0, 2, []vd.VPID{own.p.ID()})},
		{walRecEvidenceDeliver, encodeEvidenceDeliver(own.p.ID(), [][]byte{[]byte("chunk")})},
		{walRecEvidencePayout, encodeEvidencePayout(own.p.ID(), 1)},
		{walRecRedeem, encodeRedeem(redeemDeskEvidence, &reward.Cash{M: []byte("m"), Sig: big.NewInt(7)})},
	}
	for i, r := range records {
		if err := walWriteRecord(&buf, uint64(i+1), r.typ, r.body); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzWALReplay hammers walScan + applyWALRecord with arbitrary record
// streams. Errors (torn tails, undecodable bodies) are fine; panics,
// hangs, and claim-sized allocations are not.
func FuzzWALReplay(f *testing.F) {
	seed := walSeedStream(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	// A header claiming 2 GB against a few real bytes.
	hostile := binary.BigEndian.AppendUint32(nil, 1<<31)
	hostile = binary.BigEndian.AppendUint32(hostile, 0xDEADBEEF)
	f.Add(append(hostile, "short"...))
	// A CRC-valid record with a corrupt evidence-open body.
	var crafted bytes.Buffer
	walWriteRecord(&crafted, 1, walRecEvidenceOpen, []byte{1, 2, 3})
	f.Add(crafted.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := NewSystem(Config{AuthorityToken: "fuzz", Bank: durBank(t)})
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		_, valid, _ := walScan(bufio.NewReader(bytes.NewReader(data)), int64(len(data))+int64(len(walMagic)),
			func(lsn uint64, typ byte, body []byte) error {
				applied++
				sys.applyWALRecord(typ, body)
				return nil
			})
		if valid < int64(len(walMagic)) || valid > int64(len(data))+int64(len(walMagic)) {
			t.Fatalf("scan reported %d valid bytes over a %d-byte stream", valid, len(data))
		}
		if applied > 0 && sys.Store().Len() < 0 {
			t.Fatal("store corrupted")
		}
	})
}
