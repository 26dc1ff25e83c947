package batch

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
	"monge/internal/smawk"
)

func catchErr(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// TestDriverBackendDifferential runs the same query set through a PRAM
// driver and a native driver and requires identical indices — the
// driver-seam slice of the differential harness (the kernels themselves
// are covered in internal/native, the concurrent path in internal/serve).
func TestDriverBackendDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pd := New(pram.CRCW)
	nd := NewWithBackend(pram.CRCW, BackendNative)
	defer pd.Close()
	defer nd.Close()
	if pd.Backend() != BackendPRAM || nd.Backend() != BackendNative {
		t.Fatalf("backend accessors: %v / %v", pd.Backend(), nd.Backend())
	}

	for _, sh := range []struct{ m, n int }{{1, 1}, {1, 40}, {40, 1}, {63, 65}, {200, 150}} {
		a := marray.RandomMonge(rng, sh.m, sh.n)
		s := marray.RandomStaircaseMonge(rng, sh.m, sh.n)
		pr, nr := pd.RowMinima(a), nd.RowMinima(a)
		ps, ns := pd.StaircaseRowMinima(s), nd.StaircaseRowMinima(s)
		for i := range pr {
			if pr[i] != nr[i] {
				t.Fatalf("%dx%d row %d: pram %d, native %d", sh.m, sh.n, i, pr[i], nr[i])
			}
			if ps[i] != ns[i] {
				t.Fatalf("%dx%d stair row %d: pram %d, native %d", sh.m, sh.n, i, ps[i], ns[i])
			}
		}
	}

	c := marray.RandomComposite(rng, 20, 12, 16)
	pj, pv := pd.TubeMaxima(c)
	nj, nv := nd.TubeMaxima(c)
	for i := range pj {
		for k := range pj[i] {
			if pj[i][k] != nj[i][k] || pv[i][k] != nv[i][k] {
				t.Fatalf("tube (%d,%d): pram (%d,%g), native (%d,%g)",
					i, k, pj[i][k], pv[i][k], nj[i][k], nv[i][k])
			}
		}
	}
}

// TestDriverDegenerateShapes pins the degenerate-shape contract at the
// driver seam for BOTH backends: m=0 or n=0 throws ErrDimensionMismatch
// (instead of the silent all-zero answers the PRAM core used to produce
// for empty column spaces), while single-row and single-column queries
// keep working and match the sequential baseline.
func TestDriverDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, be := range []Backend{BackendPRAM, BackendNative} {
		t.Run(be.String(), func(t *testing.T) {
			d := NewWithBackend(pram.CRCW, be)
			defer d.Close()
			bad := []struct {
				name string
				f    func()
			}{
				{"rows-0xN", func() { d.RowMinima(marray.NewDense(0, 4)) }},
				{"rows-Mx0", func() { d.RowMinima(marray.NewDense(4, 0)) }},
				{"rows-0x0", func() { d.RowMinima(marray.NewDense(0, 0)) }},
				{"stair-0xN", func() { d.StaircaseRowMinima(marray.NewDense(0, 4)) }},
				{"stair-Mx0", func() { d.StaircaseRowMinima(marray.NewDense(4, 0)) }},
				{"tube-q0", func() {
					d.TubeMaxima(marray.Composite{D: marray.NewDense(2, 0), E: marray.NewDense(0, 3)})
				}},
			}
			for _, tc := range bad {
				if err := catchErr(tc.f); !errors.Is(err, merr.ErrDimensionMismatch) {
					t.Errorf("%s: err = %v, want ErrDimensionMismatch", tc.name, err)
				}
			}
			for _, sh := range []struct{ m, n int }{{1, 30}, {30, 1}, {1, 1}} {
				a := marray.RandomMonge(rng, sh.m, sh.n)
				got := d.RowMinima(a)
				want := smawk.RowMinima(a)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%dx%d row %d: got %d, want %d", sh.m, sh.n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestNativeDriverStats checks the native QueryStats contract: the query
// runs, the shape class is normalized, and no simulated cost is charged.
func TestNativeDriverStats(t *testing.T) {
	d := NewWithBackend(pram.CRCW, BackendNative)
	defer d.Close()
	a := marray.RandomMonge(rand.New(rand.NewSource(2)), 32, 48)
	var idx []int
	st := d.QueryStats(a.Cols(), func() { idx = d.RowMinima(a) })
	want := smawk.RowMinima(a)
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, idx[i], want[i])
		}
	}
	if st.Procs != 48 || st.Steps != 0 || st.Time != 0 || st.Work != 0 {
		t.Fatalf("native stats = %+v; want normalized Procs=48 and zero charged cost", st)
	}
	if d.Machine(48) != nil {
		t.Fatalf("native driver retained a simulated machine")
	}
}

// TestNativeDriverMachineWorkers checks SetMachineWorkers re-sizes the
// pool a native driver's Fanout reports without changing the kernels'
// answers, and that Close leaves the driver reusable.
func TestNativeDriverMachineWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := marray.RandomMonge(rng, 1024, 64)
	want := smawk.RowMinima(a)
	d := NewWithBackend(pram.CRCW, BackendNative)
	defer d.Close()
	for _, w := range []int{1, 4, 2} {
		d.SetMachineWorkers(w)
		got := d.RowMinima(a)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: answers changed", w)
		}
		if pool, _ := d.Fanout(); pool.Workers() != w {
			t.Fatalf("workers=%d: Fanout pool has %d workers", w, pool.Workers())
		}
		d.Close() // reusable: next Fanout rebuilds the pool
	}
}
