package main

import (
	"fmt"
	"math/rand"
	"time"

	"monge"
	"monge/internal/marray"
	"monge/internal/mindex"
	"monge/internal/smawk"
)

// indexLoad alternates SubmatrixMax and RangeRowMinima requests through
// DriverPool.Do, round-robin over indexes of implicit Monge arrays that
// setup builds. Request i asks index (i/2) mod indexes; even requests
// are SubmatrixMax, odd ones RangeRowMinima over indexRange rows.
type indexLoad struct {
	sz sizes

	mats   []monge.Matrix
	params []indexParam
	sample []brutePoint // brute-force answers on the first rectangles
	held   []monge.PoolResult

	dp      *monge.DriverPool
	ixs     []*monge.Index
	buildMS []float64 // every build of every setup
	bytes   []int64
}

type indexParam struct{ r1, r2, c1, c2, rr int }

type brutePoint struct {
	ix, param int
	pos       mindex.Pos // SubmatrixMax
	rowMin    []int      // RangeRowMinima
}

func (w *indexLoad) describe() string {
	return fmt.Sprintf("DriverPool.Do, %d indexes of implicit %dx%d Monge arrays, SubmatrixMax alternating with %d-row RangeRowMinima over %d rectangles",
		w.sz.indexes, w.sz.indexN, w.sz.indexN, w.sz.indexRange, w.sz.indexParams)
}

func (w *indexLoad) prepare(rng *rand.Rand) error {
	w.held = make([]monge.PoolResult, w.checkEvery())
	n := w.sz.indexN
	for k := 0; k < w.sz.indexes; k++ {
		w.mats = append(w.mats, convexGap(rng, n, n, float64(n)))
	}
	for k := 0; k < w.sz.indexParams; k++ {
		r1, c1 := rng.Intn(n), rng.Intn(n)
		w.params = append(w.params, indexParam{
			r1: r1, r2: r1 + rng.Intn(n-r1),
			c1: c1, c2: c1 + rng.Intn(n-c1),
			rr: rng.Intn(n - w.sz.indexRange + 1),
		})
	}
	for k := range w.mats {
		for s := 0; s < w.sz.indexBruteSamples; s++ {
			p := w.params[s]
			band := marray.RowBand(w.mats[k], p.rr, w.sz.indexRange)
			w.sample = append(w.sample, brutePoint{ix: k, param: s,
				pos:    mindex.SubmatrixMaxBrute(w.mats[k], p.r1, p.r2, p.c1, p.c2),
				rowMin: smawk.RowMinimaBrute(band)})
		}
	}
	return nil
}

func (w *indexLoad) setup() error {
	w.dp = newPool()
	w.ixs = w.ixs[:0]
	for _, a := range w.mats {
		t0 := time.Now()
		ix, err := monge.BuildIndex(a)
		if err != nil {
			return err
		}
		w.buildMS = append(w.buildMS, ms(time.Since(t0)))
		w.ixs = append(w.ixs, ix)
	}
	return warmUp(w, w.sz.indexWarmup)
}

// verifyStack checks the warm-up answers, and the freshly built indexes
// against brute force on the fixed sample of rectangles and row ranges.
func (w *indexLoad) verifyStack() error {
	if err := checkWarmup(w, w.sz.indexWarmup); err != nil {
		return err
	}
	w.bytes = w.bytes[:0]
	for _, ix := range w.ixs {
		w.bytes = append(w.bytes, ix.Bytes())
	}
	for _, s := range w.sample {
		p := w.params[s.param]
		ix := w.ixs[s.ix]
		if got := ix.SubmatrixMax(p.r1, p.r2, p.c1, p.c2); got != s.pos {
			return mismatch("index %d rectangle %d: SubmatrixMax %+v, brute force %+v", s.ix, s.param, got, s.pos)
		}
		if !sameInts(ix.RangeRowMinima(p.rr, p.rr+w.sz.indexRange-1), s.rowMin) {
			return mismatch("index %d rows %d+%d: RangeRowMinima differs from brute force", s.ix, p.rr, w.sz.indexRange)
		}
	}
	return nil
}

func (w *indexLoad) poolRequest(i int) monge.PoolRequest {
	ix, p := w.ixs[(i/2)%len(w.ixs)], w.params[i%len(w.params)]
	if i%2 == 0 {
		return monge.SubmatrixMaxRequest(ix, p.r1, p.r2, p.c1, p.c2)
	}
	return monge.RangeRowMinimaRequest(ix, p.rr, p.rr+w.sz.indexRange-1)
}

func (w *indexLoad) request(i int) error {
	res := w.dp.Do(bg, w.poolRequest(i))
	w.held[i%len(w.held)] = res
	return res.Err
}

func (w *indexLoad) check(i int) error { return w.verify(i, take(w.held, i)) }

// verify compares an answer with the direct index call.
func (w *indexLoad) verify(i int, res monge.PoolResult) error {
	ix, p := w.ixs[(i/2)%len(w.ixs)], w.params[i%len(w.params)]
	if i%2 == 0 {
		if want := ix.SubmatrixMax(p.r1, p.r2, p.c1, p.c2); res.Pos != want {
			return mismatch("request %d: pool SubmatrixMax %+v, direct %+v", i, res.Pos, want)
		}
		return nil
	}
	if !sameInts(res.Idx, ix.RangeRowMinima(p.rr, p.rr+w.sz.indexRange-1)) {
		return mismatch("request %d: pool RangeRowMinima differs from the direct call", i)
	}
	return nil
}

func (w *indexLoad) replay(i int, tr *tracer) error {
	req := w.poolRequest(i)
	q := req.Query
	r := tr.begin()

	s := time.Now()
	res := w.dp.Do(bg, req)
	r.child("client.do", s, time.Now(), true)

	s = time.Now()
	res2 := w.dp.Front().Do(bg, req)
	do := r.child("admit.do", s, time.Now(), false)

	s = time.Now()
	res3, err := submit(w.dp, req)
	roundTrip := r.child("serve.roundtrip", s, time.Now(), false)
	if err != nil {
		return err
	}

	var direct monge.PoolResult
	s = time.Now()
	if i%2 == 0 {
		direct.Pos = q.Index.SubmatrixMax(q.R1, q.R2, q.C1, q.C2)
	} else {
		direct.Idx = q.Index.RangeRowMinima(q.R1, q.R2)
	}
	call := r.child("mindex.query", s, time.Now(), false)
	r.end()

	tr.observe("admit.self", us(do-roundTrip))
	tr.observe("serve.handoff", us(roundTrip-call))

	for _, got := range []monge.PoolResult{res, res2, res3} {
		if got.Err != nil {
			return fmt.Errorf("traced request %d: %w", i, got.Err)
		}
		if err := w.verify(i, got); err != nil {
			return err
		}
	}
	return w.verify(i, direct)
}

func (w *indexLoad) tailPercentile() float64 { return 99 }
func (w *indexLoad) checkEvery() int         { return 8192 }

func (w *indexLoad) cacheStats() (int64, int64) {
	st := w.dp.Stats()
	return st.CacheHits, st.CacheMisses
}

func (w *indexLoad) layerMetrics(out map[string]float64) {
	out["mindex.build_ms"] = median(w.buildMS)
	var total int64
	for _, b := range w.bytes {
		total += b
	}
	out["mindex.index_mb"] = float64(total) / float64(len(w.bytes)) / (1 << 20)
}

func (w *indexLoad) teardown() {
	if w.dp != nil {
		w.dp.Close()
		w.dp = nil
	}
}
