package minplus

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// nativeEngine returns an engine on a native driver of the given width;
// callers close it with e.Driver().Close().
func nativeEngine(width int) *Engine {
	d := batch.NewWithBackend(pram.CRCW, batch.BackendNative)
	d.SetMachineWorkers(width)
	return NewWith(d)
}

// TestMultiplyWidthsAgree pins the row blocks to the driver width: across
// native drivers of width 1, 2, 3 and 8, which cut the output rows into
// different blocks and so solve different rows with the kernel, every
// product has the same rowStart/runK/runJ arrays, and the width-1
// product matches the naive oracle. Each case states which side of the
// transposed-B rule it lands on, and the test checks that it does, so
// the cases keep covering both paths if the rule moves.
func TestMultiplyWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ref := nativeEngine(1)
	defer ref.Driver().Close()
	link := linkMatrix(127, mongeWeight(rng, 127))
	link2 := ref.multiply(link, link, false)
	ab := ref.Multiply(marray.RandomMongeInt(rng, 100, 90, 3), marray.RandomMongeInt(rng, 90, 100, 3))
	gapOff := func(n int) []float64 {
		o := make([]float64, n)
		for i := range o {
			o[i] = rng.Float64() * float64(n)
		}
		return o
	}
	quad := func(g int) float64 { return float64(g*g) / 16 }

	type mulCase struct {
		name       string
		a, b       marray.Matrix
		triangular bool // multiply as the M-link solver does (windows over +Inf)
		tran       bool // expected: B read through its transposed copy
	}
	cases := []mulCase{
		{name: "one-row", a: marray.RandomMonge(rng, 1, 300), b: marray.RandomMonge(rng, 300, 200)},
		{name: "two-rows", a: marray.RandomMonge(rng, 2, 40), b: marray.RandomMonge(rng, 40, 30)},
		{name: "rows-below-workers", a: marray.RandomMonge(rng, 5, 1000), b: marray.RandomMonge(rng, 1000, 1000)},
		{name: "uneven-blocks", a: marray.RandomMongeInt(rng, 101, 97, 2), b: marray.RandomMongeInt(rng, 97, 97, 2), tran: true},
		{name: "implicit", a: marray.ConvexGapMonge(gapOff(150), gapOff(160), quad), b: marray.ConvexGapMonge(gapOff(160), gapOff(170), quad), tran: true},
		{name: "staircase", a: marray.RandomMongeInt(rng, 90, 80, 3), b: marray.RandomStaircaseMongeInt(rng, 80, 70, 3), tran: true},
		{name: "staircase-wide", a: marray.RandomMongeInt(rng, 12, 400, 3), b: marray.RandomStaircaseMongeInt(rng, 400, 600, 3)},
		{name: "inf-heavy", a: marray.Materialize(marray.RandomInfHeavyStaircase(rng, 70, 60)), b: marray.RandomInfHeavyStaircase(rng, 60, 90), tran: true},
		{name: "link-square", a: link, b: link, triangular: true, tran: true},
		{name: "link-fourth", a: link2, b: link2, triangular: true, tran: true},
		{name: "product-factor", a: ab, b: marray.RandomMongeInt(rng, 100, 120, 3), tran: true},
	}

	engines := make([]*Engine, 0, 3)
	for _, w := range []int{2, 3, 8} {
		e := nativeEngine(w)
		defer e.Driver().Close()
		engines = append(engines, e)
	}
	mul := func(e *Engine, tc mulCase) *Product {
		if tc.triangular {
			return e.multiply(tc.a, tc.b, false)
		}
		return e.Multiply(tc.a, tc.b)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, q, r := tc.a.Rows(), tc.a.Cols(), tc.b.Cols()
			if got := transposePays(m, q, r); got != tc.tran {
				t.Fatalf("%dx%dx%d: transposed B = %v, case expects %v", m, q, r, got, tc.tran)
			}
			want := mul(ref, tc)
			checkAgainstNaive(t, want, tc.a, tc.b)
			for _, e := range engines {
				got := mul(e, tc)
				pool, _ := e.Driver().Fanout()
				if !slices.Equal(got.rowStart, want.rowStart) || !slices.Equal(got.runK, want.runK) || !slices.Equal(got.runJ, want.runJ) {
					t.Fatalf("width %d: runs differ from width 1 (%d vs %d runs)", pool.Workers(), got.Runs(), want.Runs())
				}
			}
		})
	}
}

// TestMultiplyBlocksCanceled pins the row blocks' failure contract: a
// driver context cancelled before the product, or by a factor read in
// the middle of it, and a typed failure thrown by a factor on a pool
// worker, all surface on the calling goroutine as the typed error, and
// the product leaves no goroutine behind.
func TestMultiplyBlocksCanceled(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(5))
	a, b := marray.RandomMonge(rng, n, n), marray.RandomMonge(rng, n, n)
	before := runtime.NumGoroutine()
	e := nativeEngine(4)
	d := e.Driver()
	pool, _ := d.Fanout()
	nb := rowBlocks(pool, n)
	if nb <= 1 || (nb/2)*n/nb != n/2 {
		t.Fatalf("%d-row product runs as %d row blocks; none starts at row %d", n, nb, n/2)
	}
	checkAgainstNaive(t, e.Multiply(a, b), a, b) // starts the pool's workers
	running := runtime.NumGoroutine()

	tryMul := func(x marray.Matrix) (err error) {
		defer merr.Catch(&err)
		e.Multiply(x, b)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.SetContext(ctx)
	if err := tryMul(a); !errors.Is(err, merr.ErrCanceled) {
		t.Fatalf("pre-cancelled context: err=%v, want ErrCanceled", err)
	}

	// Row n/2 starts a row block, and the engine reads all of A's row
	// when the kernel solves it (the staircase probe reads only the last
	// column), so reading its column 0 cancels mid-product, with other
	// blocks in flight.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	d.SetContext(ctx)
	tripped := marray.Func{M: n, N: n, F: func(i, j int) float64 {
		if i == n/2 && j == 0 {
			cancel()
		}
		return a.At(i, j)
	}}
	if err := tryMul(tripped); !errors.Is(err, merr.ErrCanceled) {
		t.Fatalf("mid-product cancel: err=%v, want ErrCanceled", err)
	}

	d.SetContext(nil)
	failing := marray.Func{M: n, N: n, F: func(i, j int) float64 {
		if i == n-1 && j == 0 {
			merr.Throwf(merr.ErrNotMonge, "factor row %d", i)
		}
		return a.At(i, j)
	}}
	if err := tryMul(failing); !errors.Is(err, merr.ErrNotMonge) {
		t.Fatalf("factor failure on a worker: err=%v, want ErrNotMonge", err)
	}
	checkAgainstNaive(t, e.Multiply(a, b), a, b) // the engine stays usable

	waitGoroutines(t, running)
	d.Close()
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count drops to at most
// limit: pool workers exit asynchronously after Close.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines alive, want <= %d\n%s",
				runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
