// Package bloom implements the Bloom filter that a ViewMap view profile
// (VP) carries to summarize the view digests (VDs) received from
// neighboring vehicles. The paper stores at most two VDs per neighbor —
// the first and the last received with the same VP identifier — and
// validates mutual neighborship between two VPs by membership queries of
// each VP's element VDs against the other's filter (Section 5.2.1).
//
// The false-linkage analysis of Section 6.3.2 is reproduced here:
// with a bit array of m bits, n inserted neighbor VDs and k hash
// functions, the two-way false linkage probability is
//
//	p = (1 - [1 - 1/m]^(2nk))^(2k)
//
// and the optimal hash count is k = (m/n) ln 2. The paper picks m = 2048
// bits, which keeps the false linkage rate at about 0.1% with 300
// neighbor VPs.
package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// DefaultBits is the paper's chosen filter size: 2048 bits = 256 bytes.
const DefaultBits = 2048

// Filter is a Bloom filter over byte strings. The zero value is not
// usable; construct with New or FromBytes.
type Filter struct {
	bits []byte // m/8 bytes
	m    uint32 // number of bits
	mask uint32 // m-1 when m is a power of two, else 0
	k    uint32 // number of hash functions
	n    uint32 // number of inserted elements (informational)
}

// bitMask returns m-1 when m is a power of two, else 0. Every filter
// ViewMap actually ships is power-of-two sized (2048 or 4096 bits), so
// the membership probes — the single hottest instruction sequence in
// viewmap construction — can replace the hardware divide of `% m` with
// a bitwise and.
func bitMask(m uint32) uint32 {
	if m&(m-1) == 0 {
		return m - 1
	}
	return 0
}

// OptimalK returns the optimal number of hash functions for a filter of
// m bits expected to hold n elements: k = (m/n) ln 2, at least 1.
func OptimalK(m, n int) int {
	if n <= 0 {
		n = 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// New creates a filter with m bits and k hash functions. m is rounded up
// to a multiple of 8. It panics if m or k is non-positive; filter
// parameters are fixed at compile time in ViewMap, so this is a
// programmer error, not an input error.
func New(m, k int) *Filter {
	if m <= 0 || k <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters m=%d k=%d", m, k))
	}
	mBits := (m + 7) / 8 * 8
	return &Filter{bits: make([]byte, mBits/8), m: uint32(mBits), mask: bitMask(uint32(mBits)), k: uint32(k)}
}

// NewDefault creates the 2048-bit filter used by ViewMap VPs, sized for
// up to maxNeighbors elements with the optimal hash count.
func NewDefault(maxNeighbors int) *Filter {
	return New(DefaultBits, OptimalK(DefaultBits, maxNeighbors))
}

// FromBytes reconstructs a filter from a bit array previously obtained
// via Bytes, with the given hash count.
func FromBytes(bits []byte, k int) (*Filter, error) {
	if len(bits) == 0 || k <= 0 {
		return nil, errors.New("bloom: empty bit array or invalid k")
	}
	cp := make([]byte, len(bits))
	copy(cp, bits)
	m := uint32(len(bits) * 8)
	return &Filter{bits: cp, m: m, mask: bitMask(m), k: uint32(k)}, nil
}

// AliasBits initializes f in place over a caller-owned bit array
// WITHOUT copying it — the batch-ingest arena decodes a whole upload
// into one contiguous bit slab and carves per-profile filters out of
// it with zero allocations. The caller must not mutate bits afterwards
// (wire filters are immutable once ingested); Add through an aliased
// filter would write into the shared slab.
func (f *Filter) AliasBits(bits []byte, k int) error {
	if len(bits) == 0 || k <= 0 {
		return errors.New("bloom: empty bit array or invalid k")
	}
	m := uint32(len(bits) * 8)
	*f = Filter{bits: bits, m: m, mask: bitMask(m), k: uint32(k)}
	return nil
}

// Bits returns the number of bits m.
func (f *Filter) Bits() int { return int(f.m) }

// K returns the number of hash functions.
func (f *Filter) K() int { return int(f.k) }

// Count returns the number of elements inserted via Add.
func (f *Filter) Count() int { return int(f.n) }

// Bytes returns a copy of the underlying bit array (m/8 bytes).
func (f *Filter) Bytes() []byte {
	cp := make([]byte, len(f.bits))
	copy(cp, f.bits)
	return cp
}

// AppendBytes appends the underlying bit array (m/8 bytes) to dst and
// returns the extended slice — Bytes without the intermediate copy.
func (f *Filter) AppendBytes(dst []byte) []byte { return append(dst, f.bits...) }

// Digest derives the double-hashing pair for an element from a single
// SHA-256 digest. Bit position i is (h1 + i*h2) mod m; h2 is forced
// odd so it cycles all positions for power-of-two m. Callers that test
// the same element against many filters (viewmap construction checks
// every VD of every candidate pair) precompute the digest once.
func Digest(element []byte) (h1, h2 uint32) {
	sum := sha256.Sum256(element)
	return binary.BigEndian.Uint32(sum[0:4]), binary.BigEndian.Uint32(sum[4:8]) | 1
}

// Add inserts an element.
func (f *Filter) Add(element []byte) {
	h1, h2 := Digest(element)
	if f.mask != 0 {
		for i := uint32(0); i < f.k; i++ {
			pos := (h1 + i*h2) & f.mask
			f.bits[pos>>3] |= 1 << (pos & 7)
		}
	} else {
		for i := uint32(0); i < f.k; i++ {
			pos := (h1 + i*h2) % f.m
			f.bits[pos/8] |= 1 << (pos % 8)
		}
	}
	f.n++
}

// Test reports whether the element may be in the set. False positives
// occur with the probability analyzed in FalseLinkageRate; false
// negatives never occur.
func (f *Filter) Test(element []byte) bool {
	h1, h2 := Digest(element)
	return f.TestDigest(h1, h2)
}

// TestDigest is Test for a precomputed element digest.
func (f *Filter) TestDigest(h1, h2 uint32) bool {
	if f.mask != 0 {
		for i := uint32(0); i < f.k; i++ {
			pos := (h1 + i*h2) & f.mask
			if f.bits[pos>>3]&(1<<(pos&7)) == 0 {
				return false
			}
		}
		return true
	}
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + i*h2) % f.m
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// CountDigestHits returns how many of the precomputed digests test
// positive, stopping early once limit hits are found. This is the
// viewmap linkage test's bulk probe: testing sixty digests per
// direction per candidate pair through TestDigest would pay a call and
// loop setup per digest, where the overwhelmingly common outcome — the
// first probed bit is zero — needs three instructions. The first-probe
// rejection is therefore inlined here over the whole batch.
func (f *Filter) CountDigestHits(digests [][2]uint32, limit int) int {
	hits := 0
	if f.mask != 0 {
		bits, mask, k := f.bits, f.mask, f.k
		for _, d := range digests {
			pos := d[0] & mask
			if bits[pos>>3]&(1<<(pos&7)) == 0 {
				continue
			}
			in := true
			for i := uint32(1); i < k; i++ {
				pos = (d[0] + i*d[1]) & mask
				if bits[pos>>3]&(1<<(pos&7)) == 0 {
					in = false
					break
				}
			}
			if in {
				hits++
				if hits >= limit {
					return hits
				}
			}
		}
		return hits
	}
	for _, d := range digests {
		if f.TestDigest(d[0], d[1]) {
			hits++
			if hits >= limit {
				return hits
			}
		}
	}
	return hits
}

// FillRatio returns the fraction of set bits, used to detect poisoned
// (near-all-ones) filters submitted by attackers claiming universal
// neighborship (Section 6.3.2).
func (f *Filter) FillRatio() float64 {
	var set, i int
	for ; i+8 <= len(f.bits); i += 8 {
		set += bits.OnesCount64(binary.LittleEndian.Uint64(f.bits[i:]))
	}
	for ; i < len(f.bits); i++ {
		set += bits.OnesCount8(f.bits[i])
	}
	return float64(set) / float64(f.m)
}

// ExpectedFillRatio returns the fill ratio a filter of m bits and k
// hashes is expected to reach after n legitimate insertions:
// 1 - (1-1/m)^(kn). Viewmap construction flags filters whose actual
// fill significantly exceeds this as poisoning attempts.
func ExpectedFillRatio(m, k, n int) float64 {
	return 1 - math.Pow(1-1/float64(m), float64(k*n))
}

// FalsePositiveRate returns the classical single-query false positive
// probability (1 - (1-1/m)^(kn))^k for a filter of m bits, k hashes and
// n inserted elements.
func FalsePositiveRate(m, k, n int) float64 {
	return math.Pow(1-math.Pow(1-1/float64(m), float64(k*n)), float64(k))
}

// FalseLinkageRate returns the two-way false linkage probability from
// Section 6.3.2: both directions of the mutual neighborship check must
// produce a false positive. Each VP contributes up to two VDs per
// neighbor (first and last), so a filter holding n neighbors has 2n
// inserted elements and a cross-check queries up to 2 elements per side;
// the paper's closed form is
//
//	p = (1 - [1 - 1/m]^(2nk))^(2k).
func FalseLinkageRate(m, k, n int) float64 {
	return math.Pow(1-math.Pow(1-1/float64(m), float64(2*n*k)), float64(2*k))
}

// Union merges other into f in place. Both filters must have identical
// geometry (m and k).
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("bloom: geometry mismatch (%d/%d vs %d/%d)", f.m, f.k, other.m, other.k)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.n += other.n
	return nil
}

// SetAll sets every bit, modelling the "all ones" fabricated filter an
// attacker might submit to claim neighborship with every VP. It exists
// for the attack models and tests; legitimate code never calls it.
func (f *Filter) SetAll() {
	for i := range f.bits {
		f.bits[i] = 0xFF
	}
}
