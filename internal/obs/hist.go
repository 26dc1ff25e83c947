package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSub is the number of buckets per octave; microsecond values below
// histSub get one bucket each.
const histSub = 8

// HistBuckets is the bucket count of a Hist. The buckets are
// log-linear in the microsecond value v: bucket v counts v exactly for
// v < 8, and from 8 µs up every octave [2^e, 2^(e+1)) splits into 8
// equal buckets, bucket 8(e-2)+s counting [(8+s)·2^(e-3),
// (9+s)·2^(e-3)). A bucket is at most 1/8 of its lower edge wide, so
// the histogram spans sub-microsecond waits up to ~2.3 minutes (the
// last octave starts at 2^26 µs) before clamping into the last bucket.
const HistBuckets = histSub + 24*histSub

// Hist is a fixed log-linear latency histogram with atomic buckets —
// the queue-wait / service-latency companion of the Counters block. Like
// the counters it is lock-free, allocation-free, and safe for concurrent
// Observe from any number of goroutines; quantiles are approximate (the
// upper edge of the bucket the quantile falls in, at most 12.5 % above
// the true value from 8 µs up), enough to tell p95 from p99.
type Hist struct {
	count   atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < histSub {
		return int(max(us, 0))
	}
	e := bits.Len64(uint64(us)) - 1 // us in [2^e, 2^(e+1)), e >= 3
	b := histSub*(e-2) + int(us>>(e-3)&(histSub-1))
	return min(b, HistBuckets-1)
}

// bucketUpper returns the exclusive upper edge of bucket i.
func bucketUpper(i int) time.Duration {
	if i < histSub {
		return time.Duration(i+1) * time.Microsecond
	}
	e, s := i/histSub+2, i%histSub
	return time.Duration(int64(histSub+1+s)<<(e-3)) * time.Microsecond
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Snapshot returns the bucket counts (index i as HistBuckets
// describes), trimmed of trailing empty buckets so the JSON export
// stays short. Returns nil for an empty histogram.
func (h *Hist) Snapshot() []int64 {
	last := -1
	var out [HistBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
		if out[i] != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	snap := make([]int64, last+1)
	copy(snap, out[:last+1])
	return snap
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// recorded durations: the upper edge of the bucket the quantile falls
// in. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(HistBuckets - 1)
}
