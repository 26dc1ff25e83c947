package exec

// Regression tests for the pool's shutdown and robustness paths: Close
// racing in-flight loops (and the GC cleanup), cancellation draining
// every chunk and leaking no goroutines, abandoned pools being reaped,
// and stall injection recomputing chunks without double-executing any
// iteration.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseConcurrentWithLoops hammers Close against in-flight For and Run
// loops. Every loop must still execute each iteration exactly once (the
// caller participates, so a loop finishes even if Close steals the
// workers), and the test must be race-clean — this is the regression test
// for Close racing the GC cleanup / publish during in-flight supersteps.
// It ends with a leak check: after the storm, Close must leave no worker
// goroutine behind.
func TestCloseConcurrentWithLoops(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(4)
	const (
		loops = 50
		n     = serialCutoff * 4
		gor   = 4
	)
	var total int64
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < loops; r++ {
				if g%2 == 0 {
					p.For(n, func(i int) { atomic.AddInt64(&total, 1) })
				} else {
					if _, err := p.Run(Loop{N: n, Body: func(i int) { atomic.AddInt64(&total, 1) }}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for r := 0; r < 25; r++ {
		p.Close()
	}
	wg.Wait()
	if got, want := atomic.LoadInt64(&total), int64(gor*loops*n); got != want {
		t.Fatalf("executed %d iterations, want %d", got, want)
	}
	p.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the process goroutine count drops to at most
// limit, failing after a generous deadline. Workers exit asynchronously
// after Close returns their WaitGroup, so a bounded poll is needed.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still alive, want <= %d\n%s",
				runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunCancelDrainsAndLeaksNothing verifies the cancellation contract:
// a pre-cancelled context executes no chunk body at all, a mid-run cancel
// stops promptly with the context error, and after Close the pool has
// released every goroutine it started.
func TestRunCancelDrainsAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed int64
	res, err := p.Run(Loop{N: 1 << 16, Body: func(i int) { atomic.AddInt64(&executed, 1) }, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled Run returned %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&executed); got != 0 {
		t.Fatalf("pre-cancelled Run executed %d iterations, want 0", got)
	}
	if res.Chunks == 0 {
		t.Fatal("Run must still report the loop's chunk structure")
	}
	// A few coarse chunks: the workers must not claim them all before
	// the caller sees the cancellation.
	for rep := 0; rep < 200; rep++ {
		if _, err := p.Run(Loop{N: 4, Grain: 1, Body: func(i int) { atomic.AddInt64(&executed, 1) }, Ctx: ctx}); err != context.Canceled {
			t.Fatalf("pre-cancelled coarse Run returned %v, want context.Canceled", err)
		}
	}
	if got := atomic.LoadInt64(&executed); got != 0 {
		t.Fatalf("pre-cancelled coarse Runs executed %d iterations, want 0", got)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	var ran int64
	_, err = p.Run(Loop{N: 1 << 16, Body: func(i int) {
		if atomic.AddInt64(&ran, 1) == 1 {
			cancel2()
		}
	}, Ctx: ctx2})
	if err != context.Canceled {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if got, n := atomic.LoadInt64(&ran), int64(1<<16); got == 0 || got >= n {
		t.Fatalf("mid-run cancel executed %d of %d iterations, want partial", got, n)
	}

	p.Close()
	waitGoroutines(t, base)
}

// TestCleanupReleasesAbandonedPools abandons used pools without Close and
// checks the runtime.AddCleanup hook eventually releases their parked
// workers — the leak-regression half of the Pool lifetime contract. The
// cleanup runs asynchronously after a GC observes the Pool unreachable,
// so the test polls via waitGoroutines (which itself keeps triggering GC)
// rather than expecting the workers gone after a fixed number of cycles.
func TestCleanupReleasesAbandonedPools(t *testing.T) {
	base := runtime.NumGoroutine()
	for r := 0; r < 8; r++ {
		p := NewPool(2)
		p.For(serialCutoff*2, func(i int) {})
	}
	waitGoroutines(t, base)
}

// TestRunStallsRecompute checks the stall hook: each stalled attempt is
// counted, iterations still execute exactly once, and the schedule —
// being keyed by (chunk, attempt) only — is identical for any worker
// count.
func TestRunStallsRecompute(t *testing.T) {
	const n = serialCutoff * 8
	stallsFor := func(chunk, attempt int) bool { return chunk%3 == 1 && attempt < 2 }

	run := func(workers int) (hits []int32, stalls int64) {
		p := NewPool(workers)
		defer p.Close()
		h := make([]int32, n)
		res, err := p.Run(Loop{
			N:     n,
			Body:  func(i int) { atomic.AddInt32(&h[i], 1) },
			Stall: stallsFor,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h, res.Stalls
	}

	hits1, stalls1 := run(1)
	hits8, stalls8 := run(8)
	for i := range hits1 {
		if hits1[i] != 1 || hits8[i] != 1 {
			t.Fatalf("iteration %d executed %d/%d times, want exactly once", i, hits1[i], hits8[i])
		}
	}
	_, count := ChunkBounds(n)
	want := int64(0)
	for k := 0; k < count; k++ {
		if k%3 == 1 {
			want += 2
		}
	}
	if stalls1 != want || stalls8 != want {
		t.Fatalf("stall counts %d/%d, want %d for any worker count", stalls1, stalls8, want)
	}
}
