package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistBuckets pins the log-linear bucket mapping at its edges.
func TestHistBuckets(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // clamped, not a panic
		{time.Microsecond, 1},
		{7 * time.Microsecond, 7},
		{8 * time.Microsecond, 8},
		{15 * time.Microsecond, 15},
		{16 * time.Microsecond, 16},
		{17 * time.Microsecond, 16}, // [16, 18)
		{18 * time.Microsecond, 17},
		{time.Millisecond, 63},        // [960, 1024)
		{1024 * time.Microsecond, 64}, // [1024, 1152)
		{time.Hour, HistBuckets - 1},  // clamped into the last bucket
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestHistResolution pins what the log-linear buckets are for: from
// 8 µs up, Quantile is at most 12.5 % above the value it bounds, and a
// tail of 1 % is told apart from the body — p95 != p99 — both when the
// two values sit in different octaves and in one octave, where
// power-of-two buckets could not separate them.
func TestHistResolution(t *testing.T) {
	check := func(v time.Duration) {
		var h Hist
		h.Observe(v)
		if got := h.Quantile(0.5); got < v || 8*got > 9*v {
			t.Fatalf("Quantile of a single %v = %v, want in [v, 1.125v]", v, got)
		}
	}
	for us := 8; us < 1<<14; us++ {
		check(time.Duration(us) * time.Microsecond)
	}
	for e := 14; e < 27; e++ {
		for _, off := range []int64{0, 1, 3, 1<<(e-3) - 1, 1 << (e - 3), 1<<e - 1} {
			check(time.Duration(1<<e+off) * time.Microsecond)
		}
	}

	for _, mix := range [][2]time.Duration{
		{1000 * time.Microsecond, 1500 * time.Microsecond},
		{1100 * time.Microsecond, 1500 * time.Microsecond},
	} {
		var h Hist
		for i := 0; i < 990; i++ {
			h.Observe(mix[0])
		}
		for i := 0; i < 10; i++ {
			h.Observe(mix[1])
		}
		if p95, p99 := h.Quantile(0.95), h.Quantile(0.99); p95 == p99 {
			t.Errorf("99:1 mix of %v and %v: p95 = p99 = %v", mix[0], mix[1], p95)
		}
	}
}

// TestHistQuantile pins the quantile contract: an upper bound within
// one bucket (2x) of the true value, monotone in q, zero when empty.
func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 90 observations at ~100us, 10 at ~10ms.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count %d, want 100", got)
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if p50 < 100*time.Microsecond || p50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want upper bucket edge of ~100us (within 2x)", p50)
	}
	if p95 < 10*time.Millisecond || p95 > 20*time.Millisecond {
		t.Fatalf("p95 = %v, want upper bucket edge of ~10ms (within 2x)", p95)
	}
	if p99 < p95 || p95 < p50 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// Out-of-range q is clamped, not a panic.
	if h.Quantile(-1) <= 0 || h.Quantile(2) <= 0 {
		t.Fatal("clamped quantiles must still return bucket edges")
	}
}

// TestHistSnapshotTrimmed pins the JSON export shape: trailing empties
// trimmed, nil for an empty histogram.
func TestHistSnapshotTrimmed(t *testing.T) {
	var h Hist
	if h.Snapshot() != nil {
		t.Fatal("empty histogram snapshot != nil")
	}
	h.Observe(3 * time.Microsecond) // bucket 3
	snap := h.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want 4 (trimmed after last non-empty bucket)", len(snap))
	}
	if snap[3] != 1 {
		t.Fatalf("bucket 3 = %d, want 1", snap[3])
	}
}

// TestHistConcurrent exercises concurrent Observe under -race and pins
// that no observation is lost.
func TestHistConcurrent(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count %d, want 8000", got)
	}
	var sum int64
	for _, b := range h.Snapshot() {
		sum += b
	}
	if sum != 8000 {
		t.Fatalf("bucket sum %d, want 8000", sum)
	}
}
