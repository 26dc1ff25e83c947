package main

import (
	"fmt"
	"math/rand"
	"time"

	"monge"
	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/minplus"
)

// minplusLoad multiplies n x n convex-gap factor pairs with
// monge.MinPlus, request i taking pair i mod minplusPairs. With the gap
// penalty g²/16 and offsets spread over [0, n), each product row holds
// several witness runs, so the run-sparse representation is exercised;
// the random Monge families give one run per row.
type minplusLoad struct {
	sz sizes

	a, b    []marray.Matrix
	runs    []int           // exact run count per pair, from the naive product
	witness [][][]int       // naive witnesses of every witness-checked row
	w1      *minplus.Engine // engine on a width-1 native driver
	held    []*monge.MinPlusProduct
}

func (w *minplusLoad) describe() string {
	return fmt.Sprintf("monge.MinPlus on %d pairs of implicit %dx%d convex-gap factors (h(g)=g²/16), round-robin",
		w.sz.minplusPairs, w.sz.minplusN, w.sz.minplusN)
}

func (w *minplusLoad) prepare(rng *rand.Rand) error {
	w.held = make([]*monge.MinPlusProduct, w.checkEvery())
	n := w.sz.minplusN
	for k := 0; k < w.sz.minplusPairs; k++ {
		a := convexGap(rng, n, n, float64(n))
		b := convexGap(rng, n, n, float64(n))
		runs, wit := naiveWitnesses(a, b, w.sz.minplusWitnessStride)
		w.a = append(w.a, a)
		w.b = append(w.b, b)
		w.runs = append(w.runs, runs)
		w.witness = append(w.witness, wit)
	}
	return nil
}

// naiveWitnesses computes the leftmost witness of every product entry
// by exhaustive scan over dense copies of the factors. It returns the
// exact run count (witness changes along each row, plus one per row)
// and the witnesses of every stride-th row.
func naiveWitnesses(a, b marray.Matrix, stride int) (int, [][]int) {
	m, q, r := a.Rows(), a.Cols(), b.Cols()
	da := marray.Materialize(a)
	bt := marray.Materialize(marray.Transpose(b))
	runs := 0
	var rows [][]int
	wit := make([]int, r)
	for i := 0; i < m; i++ {
		ai := da.RowView(i)
		for k := 0; k < r; k++ {
			bk := bt.RowView(k)
			best, bj := ai[0]+bk[0], 0
			for j := 1; j < q; j++ {
				if v := ai[j] + bk[j]; v < best {
					best, bj = v, j
				}
			}
			wit[k] = bj
			if k == 0 || wit[k] != wit[k-1] {
				runs++
			}
		}
		if i%stride == 0 {
			rows = append(rows, append([]int(nil), wit...))
		}
	}
	return runs, rows
}

func (w *minplusLoad) setup() error {
	w.w1 = minplus.NewWith(newWorkerDriver())
	return warmUp(w, len(w.a))
}

func (w *minplusLoad) verifyStack() error { return checkWarmup(w, len(w.a)) }

func (w *minplusLoad) request(i int) error {
	k := i % len(w.a)
	p, err := monge.MinPlus(w.a[k], w.b[k])
	w.held[i%len(w.held)] = p
	return err
}

func (w *minplusLoad) check(i int) error { return w.verify(i, take(w.held, i)) }

// verify compares the product's exact run count and the leftmost
// witnesses of every witness-checked row with the naive product.
func (w *minplusLoad) verify(i int, p *monge.MinPlusProduct) error {
	k := i % len(w.a)
	if p.Runs() != w.runs[k] {
		return mismatch("product %d (pair %d): %d runs, naive product %d", i, k, p.Runs(), w.runs[k])
	}
	stride := w.sz.minplusWitnessStride
	for s, want := range w.witness[k] {
		for c, j := range want {
			if got := p.Witness(s*stride, c); got != j {
				return mismatch("product %d (pair %d): witness (%d,%d) = %d, naive %d", i, k, s*stride, c, got, j)
			}
		}
	}
	return nil
}

func (w *minplusLoad) replay(i int, tr *tracer) error {
	k := i % len(w.a)
	a, b := w.a[k], w.b[k]
	r := tr.begin()

	s := time.Now()
	p, err := monge.MinPlus(a, b)
	r.child("client.minplus", s, time.Now(), true)

	s = time.Now()
	screenErr := marray.CheckMongeSampled(a)
	if screenErr == nil {
		screenErr = marray.CheckMongeSampled(b)
	}
	r.child("minplus.screen", s, time.Now(), false)

	s = time.Now()
	e := minplus.New(batch.BackendNative)
	p2 := e.Multiply(a, b)
	e.Close()
	r.child("minplus.multiply", s, time.Now(), false)

	s = time.Now()
	p3 := w.w1.Multiply(a, b)
	r.child("minplus.multiply_w1", s, time.Now(), false)
	r.end()

	if err == nil {
		err = screenErr
	}
	if err != nil {
		return fmt.Errorf("traced product %d: %w", i, err)
	}
	for _, got := range []*monge.MinPlusProduct{p, p2, p3} {
		if err := w.verify(i, got); err != nil {
			return err
		}
	}
	return nil
}

func (w *minplusLoad) tailPercentile() float64 { return 90 }
func (w *minplusLoad) checkEvery() int         { return w.sz.minplusPairs }

func (w *minplusLoad) cacheStats() (int64, int64) { return 0, 0 }

func (w *minplusLoad) layerMetrics(out map[string]float64) {
	for _, name := range []string{"minplus.screen", "minplus.multiply", "minplus.multiply_w1"} {
		out[name+"_ms"] = out[name+"_us"] / 1e3
	}
	n := float64(w.sz.minplusN)
	out["minplus.ns_per_cell"] = out["minplus.multiply_us"] * 1e3 / (n * n)
	total := 0
	for _, r := range w.runs {
		total += r
	}
	out["minplus.runs_per_row"] = float64(total) / float64(len(w.runs)) / n
}

func (w *minplusLoad) teardown() {
	if w.w1 != nil {
		w.w1.Driver().Close()
		w.w1 = nil
	}
}
