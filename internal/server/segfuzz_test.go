package server

// Native fuzz target for the segment reader. Segment files are read
// back at recovery and on every cold query, and a crash, a bad disk or
// an operator can put any bytes there, so decodeSegment must never
// panic, must size what it allocates by the bytes present rather than
// by the counts the file claims, and must hand the restore only lists
// it can refuse cleanly. Wired into `make fuzz` alongside the other
// decoder targets.

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// segmentImage frames a VMAPSEG2 file for minute m from profiles and
// link lists, checksum included.
func segmentImage(m int64, profiles []*vp.Profile, links [][]int) []byte {
	out := append([]byte("VMAPSEG2"), binary.BigEndian.AppendUint64(nil, uint64(m))...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(profiles)))
	out = append(out, framedRecords(profiles)...)
	out = appendLinkSection(out, links)
	return withCRC(out)
}

// withCRC appends the CRC-32C of body.
func withCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// fuzzSegMinute is the minute every seed segment claims.
const fuzzSegMinute = 7

// segmentSeeds returns a valid segment of a small linked minute and its
// image without the trailing checksum.
func segmentSeeds(tb testing.TB) (valid, body []byte) {
	tb.Helper()
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(800, 800))
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{N: 6, Area: area, Minute: fuzzSegMinute, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	core.MarkTrustedNearest(profiles, area.Center())
	b := core.NewIncrementalBuilder(core.IncrementalConfig{Minute: fuzzSegMinute, RequirePlausible: true})
	if _, err := b.AddBatch(profiles); err != nil {
		tb.Fatal(err)
	}
	valid = segmentImage(fuzzSegMinute, profiles, b.LowerLinks())
	return valid, valid[:len(valid)-4]
}

// FuzzSegmentRead hammers decodeSegment, and the shard restore behind
// it, with arbitrary segment images. Each input is also tried with its
// trailing checksum recomputed, so mutations reach the decoder behind
// the CRC check. Errors are fine; panics and claim-sized allocations
// are not.
func FuzzSegmentRead(f *testing.F) {
	valid, body := segmentSeeds(f)
	f.Add(valid)
	// A link section cut short: the last node's list loses its last id.
	f.Add(withCRC(append([]byte(nil), body[:len(body)-4]...)))
	// The last node claims more links than its id allows.
	f.Add(withCRC(overclaimLastNode(body)))
	// One flipped checksum byte.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	// The retired format's header.
	f.Add(append([]byte("VMAPSEG1"), valid[8:]...))
	// A record count far above what the bytes can hold.
	huge := append([]byte(nil), body...)
	binary.BigEndian.PutUint32(huge[16:20], 1<<31)
	f.Add(withCRC(huge))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegmentImage(data)
		if len(data) >= 4 {
			checkSegmentImage(withCRC(append([]byte(nil), data[:len(data)-4]...)))
		}
	})
}

// overclaimLastNode rewrites the final link list of a checksum-less
// segment image into one that claims as many links as there are nodes,
// ids 0 through the last node's own id.
func overclaimLastNode(body []byte) []byte {
	// Walk past the records and every list but the last.
	off := segHeadLen
	count := binary.BigEndian.Uint32(body[16:20])
	for i := uint32(0); i < count; i++ {
		off += 5 + int(binary.BigEndian.Uint32(body[off:]))
	}
	nodes := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < nodes-1; i++ {
		off += 4 + 4*int(binary.BigEndian.Uint32(body[off:]))
	}
	out := binary.BigEndian.AppendUint32(append([]byte(nil), body[:off]...), uint32(nodes))
	for id := 0; id < nodes; id++ {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	return out
}

// checkSegmentImage decodes one image and, when it decodes, restores it
// into a fresh shard.
func checkSegmentImage(data []byte) {
	profiles, links, err := decodeSegment(fuzzSegMinute, data)
	if err != nil {
		return
	}
	// Restore errors are fine; the restore must refuse bad lists, not
	// index past the graph with them.
	_ = NewStore().newShard(fuzzSegMinute).restore(profiles, links)
}

// TestSegmentReadSeeds pins the verdict on each fuzz seed in plain
// `go test`: the valid image restores, every damaged one is refused
// at decode or at restore, and the retired format is refused by name.
func TestSegmentReadSeeds(t *testing.T) {
	valid, body := segmentSeeds(t)
	profiles, links, err := decodeSegment(fuzzSegMinute, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore().newShard(fuzzSegMinute).restore(profiles, links); err != nil {
		t.Fatalf("valid segment: %v", err)
	}

	huge := append([]byte(nil), body...)
	binary.BigEndian.PutUint32(huge[16:20], 1<<31)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"truncated link section", "link", withCRC(append([]byte(nil), body[:len(body)-4]...))},
		{"overclaiming node", "not a strictly ascending id below it", withCRC(overclaimLastNode(body))},
		{"flipped checksum", "checksum mismatch", flipped},
		{"retired format", "VMAPSEG1", append([]byte("VMAPSEG1"), valid[8:]...)},
		{"huge record count", "record 6", withCRC(huge)},
	} {
		profiles, links, err := decodeSegment(fuzzSegMinute, tc.data)
		if err == nil {
			err = NewStore().newShard(fuzzSegMinute).restore(profiles, links)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
