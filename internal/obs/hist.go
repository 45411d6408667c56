// Package obs is the server-side observability layer: lock-free
// log-bucketed latency histograms with mergeable snapshots, a fixed
// metric registry exposed in Prometheus text format, and lightweight
// per-request traces with per-stage span accounting. Everything on
// the record path is allocation-free and wait-free (one or two atomic
// adds); everything that aggregates — snapshots, quantiles, the
// exposition writer — runs off the hot path and tolerates concurrent
// recording with weak (per-counter atomic) consistency.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const (
	// numBuckets is one bucket per possible bit length of a uint64
	// value: bucket b holds values v with bits.Len64(v) == b, i.e.
	// the power-of-two range [2^(b-1), 2^b). Bucket 0 holds zero.
	numBuckets = 64

	// numShards stripes the counters so concurrent recorders from
	// different goroutines rarely contend on one cache line. Must be
	// a power of two.
	numShards = 8

	shardMask = numShards - 1
)

// histShard is one stripe of counters. The pad keeps adjacent shards
// off each other's final cache line.
type histShard struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [7]uint64
}

// Histogram is a lock-free latency/size histogram with power-of-two
// buckets. Record is wait-free (two atomic adds on a striped shard)
// and a nil *Histogram is a valid no-op receiver, which is how a
// component built without a registry records nothing.
//
// Units are the caller's: the server records durations in
// nanoseconds and sizes in plain counts; the exposition layer owns
// the conversion.
type Histogram struct {
	shards [numShards]histShard
}

// stackShard picks a counter stripe from the address of a stack
// local: goroutine stacks are disjoint, so concurrent recorders
// spread across shards while a single goroutine keeps hitting the
// same (cache-warm) one. The pointer is only hashed, never
// dereferenced or retained.
func stackShard() int {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return int((p>>6)^(p>>13)) & shardMask
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b > numBuckets-1 {
		b = numBuckets - 1
	}
	s := &h.shards[stackShard()]
	s.counts[b].Add(1)
	s.sum.Add(uint64(v))
}

// Snapshot is a point-in-time merge of a histogram's shards. It is a
// plain value: copy it, merge others into it, or compute quantiles
// without touching the live histogram again. Snapshots taken while
// recorders run are weakly consistent — each counter is read
// atomically, but Sum may lag the buckets by in-flight observations.
type Snapshot struct {
	// Buckets[b] counts observations v with bits.Len64(v) == b.
	Buckets [numBuckets]uint64
	// Count is the total number of observations (sum of Buckets).
	Count uint64
	// Sum is the exact running total in the recorded unit.
	Sum uint64
}

// Snapshot merges the shards into one mergeable snapshot. A nil
// histogram yields a zero snapshot.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Buckets[b] += sh.counts[b].Load()
		}
		s.Sum += sh.sum.Load()
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// Merge adds another snapshot into s (cross-shard, cross-node, or
// cross-histogram aggregation).
func (s *Snapshot) Merge(o Snapshot) {
	for b := range s.Buckets {
		s.Buckets[b] += o.Buckets[b]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// BucketUpper is the largest value bucket b can hold: 0 for bucket 0,
// 2^b − 1 otherwise.
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(b) - 1
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) as the upper bound
// of the bucket holding the rank-⌈q·Count⌉ observation. The estimate
// e of a true sample value v ≥ 1 therefore satisfies v ≤ e < 2v — an
// upper bound that is never more than one power of two away
// (TestHistogramQuantileBrackets pins exactly this property).
func (s Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range s.Buckets {
		cum += c
		if cum >= target {
			return BucketUpper(b)
		}
	}
	return BucketUpper(numBuckets - 1)
}
