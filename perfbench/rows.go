package main

import (
	"fmt"
	"math/rand"
	"time"

	"monge"
	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/smawk"
)

// rowsLoad runs the paper's three searching problems through
// DriverPool.Do on implicit (Func-backed) inputs, which the pool
// evaluates through its tile caches. Input k has kind k mod 3: row
// minima, staircase row minima, tube maxima; request i asks input
// i mod rowsInputs.
type rowsLoad struct {
	sz sizes

	inputs []rowsInput
	held   []monge.PoolResult

	dp     *monge.DriverPool
	direct *batch.Driver        // the width-1 native driver a pool worker runs
	caches [2]*marray.TileCache // a fresh pair, as a pool worker holds
}

type rowsInput struct {
	kind  int // 0 row minima, 1 staircase row minima, 2 tube maxima
	a     marray.Matrix
	c     marray.Composite
	want  []int
	wantJ [][]int
	wantV [][]float64
}

var rowsKinds = [3]string{"row-minima", "staircase-row-minima", "tube-maxima"}

func (w *rowsLoad) describe() string {
	return fmt.Sprintf("DriverPool.Do round-robin over %d implicit inputs: row minima %dx%d, staircase row minima %dx%d, tube maxima %dx%dx%d",
		w.sz.rowsInputs, w.sz.rowN, w.sz.rowN, w.sz.stairN, w.sz.stairN, w.sz.tubeN, w.sz.tubeN, w.sz.tubeN)
}

func (w *rowsLoad) prepare(rng *rand.Rand) error {
	w.held = make([]monge.PoolResult, w.checkEvery())
	for k := 0; k < w.sz.rowsInputs; k++ {
		in := rowsInput{kind: k % 3}
		switch in.kind {
		case 0:
			in.a = convexGap(rng, w.sz.rowN, w.sz.rowN, float64(w.sz.rowN))
			in.want = smawk.RowMinimaBrute(in.a)
		case 1:
			in.a = staircase(rng, convexGap(rng, w.sz.stairN, w.sz.stairN, float64(w.sz.stairN)))
			in.want = smawk.StaircaseRowMinimaBrute(in.a)
		case 2:
			n := w.sz.tubeN
			in.c = marray.Composite{D: convexGap(rng, n, n, float64(n)), E: convexGap(rng, n, n, float64(n))}
			in.wantJ, in.wantV = smawk.TubeMaximaBrute(in.c)
		}
		w.inputs = append(w.inputs, in)
	}
	return nil
}

func (w *rowsLoad) setup() error {
	w.dp = newPool()
	w.direct = newWorkerDriver()
	w.caches = [2]*marray.TileCache{marray.NewTileCache(0), marray.NewTileCache(0)}
	return warmUp(w, w.sz.rowsWarmup)
}

func (w *rowsLoad) verifyStack() error { return checkWarmup(w, w.sz.rowsWarmup) }

func (w *rowsLoad) poolRequest(in *rowsInput) monge.PoolRequest {
	switch in.kind {
	case 0:
		return monge.RowMinimaRequest(in.a)
	case 1:
		return monge.StaircaseRowMinimaRequest(in.a)
	}
	return monge.TubeMaximaRequest(in.c)
}

func (w *rowsLoad) request(i int) error {
	res := w.dp.Do(bg, w.poolRequest(&w.inputs[i%len(w.inputs)]))
	w.held[i%len(w.held)] = res
	return res.Err
}

func (w *rowsLoad) check(i int) error { return w.verify(i, take(w.held, i)) }

// verify compares an answer with the brute-force one.
func (w *rowsLoad) verify(i int, res monge.PoolResult) error {
	k := i % len(w.inputs)
	in := &w.inputs[k]
	if in.kind == 2 {
		if !sameTube(res.TubeJ, res.TubeV, in.wantJ, in.wantV) {
			return mismatch("request %d (input %d): tube maxima differ from brute force", i, k)
		}
		return nil
	}
	if !sameInts(res.Idx, in.want) {
		return mismatch("request %d (input %d, %s): answer differs from brute force", i, k, rowsKinds[in.kind])
	}
	return nil
}

func sameTube(j [][]int, v [][]float64, wantJ [][]int, wantV [][]float64) bool {
	if len(j) != len(wantJ) || len(v) != len(wantV) {
		return false
	}
	for i := range wantJ {
		if !sameInts(j[i], wantJ[i]) || len(v[i]) != len(wantV[i]) {
			return false
		}
		for k := range wantV[i] {
			if v[i][k] != wantV[i][k] {
				return false
			}
		}
	}
	return true
}

// screen runs the sampled validator DriverPool.Do runs on the input.
func screen(in *rowsInput) error {
	switch in.kind {
	case 0:
		return marray.CheckMongeSampled(in.a)
	case 1:
		return marray.CheckStaircaseMongeSampled(in.a)
	}
	if err := marray.CheckMongeSampled(in.c.D); err != nil {
		return err
	}
	return marray.CheckMongeSampled(in.c.E)
}

// solve is what a pool worker runs: the width-1 native driver on the
// input, through fresh tile-cache views when cached is set.
func (w *rowsLoad) solve(in *rowsInput, cached bool) monge.PoolResult {
	view := func(which int, a marray.Matrix) marray.Matrix {
		if !cached {
			return a
		}
		return w.caches[which].View(a)
	}
	var res monge.PoolResult
	switch in.kind {
	case 0:
		res.Idx = w.direct.RowMinima(view(0, in.a))
	case 1:
		res.Idx = w.direct.StaircaseRowMinima(view(0, in.a))
	default:
		res.TubeJ, res.TubeV = w.direct.TubeMaxima(marray.Composite{D: view(0, in.c.D), E: view(1, in.c.E)})
	}
	return res
}

func (w *rowsLoad) replay(i int, tr *tracer) error {
	in := &w.inputs[i%len(w.inputs)]
	req := w.poolRequest(in)
	r := tr.begin()

	s := time.Now()
	res := w.dp.Do(bg, req)
	r.child("client.do", s, time.Now(), true)

	s = time.Now()
	screenErr := screen(in)
	r.child("marray.screen", s, time.Now(), false)

	s = time.Now()
	res2 := w.dp.Front().Do(bg, req)
	do := r.child("admit.do", s, time.Now(), false)

	s = time.Now()
	res3, err := submit(w.dp, req)
	roundTrip := r.child("serve.roundtrip", s, time.Now(), false)
	if err != nil {
		return err
	}

	s = time.Now()
	res4 := w.solve(in, true)
	direct := r.child("batch.query", s, time.Now(), false)

	s = time.Now()
	res5 := w.solve(in, false)
	r.child("batch.query_uncached", s, time.Now(), false)
	r.end()

	tr.observe("admit.self", us(do-roundTrip))
	tr.observe("serve.handoff", us(roundTrip-direct))

	if screenErr != nil {
		return fmt.Errorf("traced request %d: %w", i, screenErr)
	}
	for _, got := range []monge.PoolResult{res, res2, res3, res4, res5} {
		if got.Err != nil {
			return fmt.Errorf("traced request %d: %w", i, got.Err)
		}
		if err := w.verify(i, got); err != nil {
			return err
		}
	}
	return nil
}

func (w *rowsLoad) tailPercentile() float64 { return 99 }
func (w *rowsLoad) checkEvery() int         { return 1024 }

func (w *rowsLoad) cacheStats() (int64, int64) {
	st := w.dp.Stats()
	return st.CacheHits, st.CacheMisses
}

func (w *rowsLoad) layerMetrics(map[string]float64) {}

func (w *rowsLoad) teardown() {
	if w.dp != nil {
		w.direct.Close()
		w.dp.Close()
		w.dp = nil
	}
}
