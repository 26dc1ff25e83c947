package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// This file mirrors the PR 5 concurrency suite with the native execution
// backend, and strengthens it: the oracle (sequential) still runs on a
// PRAM batch.Driver, so every assertion here is a cross-backend
// differential check under concurrent submission — the serving-layer
// slice of the native conformance harness.

// TestNativeConcurrentPoolMatchesSequential: 3 striped submitters on a
// 4-shard native pool, index-exact with the sequential PRAM oracle.
func TestNativeConcurrentPoolMatchesSequential(t *testing.T) {
	qs := queryMix(99)
	want := sequential(t, qs)
	p := New(pram.CRCW, Options{Workers: 4, Backend: batch.BackendNative})
	defer p.Close()

	got := make([]Result, len(qs))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(qs); i += 3 {
				tk, err := p.Submit(qs[i])
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				got[i] = tk.Result()
			}
		}(g)
	}
	wg.Wait()
	for i := range qs {
		assertSame(t, i, got[i], want[i])
	}
	if st := p.Stats(); st.Queries != int64(len(qs)) {
		t.Errorf("stats counted %d queries, want %d", st.Queries, len(qs))
	}
}

// TestNativePoolCancellation: a cancelled pool context resolves native
// tickets with ErrCanceled, same contract as the PRAM backend.
func TestNativePoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(pram.CRCW, Options{Workers: 2, Context: ctx, Backend: batch.BackendNative})
	defer p.Close()
	rng := rand.New(rand.NewSource(6))
	tk, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 32, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Result(); !errors.Is(res.Err, merr.ErrCanceled) {
		t.Fatalf("cancelled query err=%v, want ErrCanceled", res.Err)
	}
}

// TestNativePoolDegenerateShapes: the degenerate-shape contract survives
// the serving layer — an empty query resolves its ticket with
// ErrDimensionMismatch in-band, on both backends.
func TestNativePoolDegenerateShapes(t *testing.T) {
	for _, be := range []batch.Backend{batch.BackendPRAM, batch.BackendNative} {
		t.Run(be.String(), func(t *testing.T) {
			p := New(pram.CRCW, Options{Workers: 1, Backend: be})
			defer p.Close()
			tk, err := p.Submit(Query{Kind: RowMinima, A: marray.NewDense(0, 7)})
			if err != nil {
				t.Fatal(err)
			}
			if res := tk.Result(); !errors.Is(res.Err, merr.ErrDimensionMismatch) {
				t.Fatalf("empty query err=%v, want ErrDimensionMismatch", res.Err)
			}
		})
	}
}

// TestNativePoolGoroutineLeak pins native shutdown: after Close, the
// workers and their drivers' Fanout pools are gone.
func TestNativePoolGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(pram.CRCW, Options{Workers: 4, Backend: batch.BackendNative})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		if _, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 16, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	p.Close()
	waitGoroutines(t, base)
}
