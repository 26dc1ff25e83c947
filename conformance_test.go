package monge

import (
	"math/rand"
	"runtime"
	"testing"

	hc "monge/internal/hypercube"
	"monge/internal/marray"
)

// The conformance tests pin the central cross-model contract of the
// repository: every simulated machine — CRCW PRAM, CREW PRAM, hypercube,
// cube-connected cycles, shuffle-exchange — must return exactly the index
// vector the sequential SMAWK reference computes, including leftmost
// tie-breaking, for shared random inputs. The determinism tests pin the
// runtime contract of internal/exec: the worker count of the backing pool
// is an implementation knob that must change neither outputs nor any
// charged counter.

// netInputs converts a dense matrix into the distributed input model of
// the network entry points: v[i] = i, w[j] = j, f reads the matrix.
func netInputs(a Matrix) (v, w []float64, f func(vi, wj float64) float64) {
	v = make([]float64, a.Rows())
	w = make([]float64, a.Cols())
	for i := range v {
		v[i] = float64(i)
	}
	for j := range w {
		w[j] = float64(j)
	}
	return v, w, func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }
}

var networkKinds = []struct {
	name string
	kind NetworkKind
}{
	{"hypercube", Hypercube},
	{"ccc", CCC},
	{"shuffle-exchange", ShuffleExchange},
}

func TestCrossModelRowMinimaConformance(t *testing.T) {
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 40}, {40, 1}, {5, 13}, {17, 17}, {33, 9}, {64, 64},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range shapes {
			for _, a := range []Matrix{
				marray.RandomMonge(rng, sh.m, sh.n),
				marray.RandomMongeInt(rng, sh.m, sh.n, 3), // tie-rich
			} {
				want, err := RowMinima(a) // sequential SMAWK reference
				if err != nil {
					t.Fatalf("seed=%d %dx%d SMAWK: %v", seed, sh.m, sh.n, err)
				}
				check := func(model string, got []int, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("seed=%d %dx%d %s: %v", seed, sh.m, sh.n, model, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed=%d %dx%d %s: row %d min at col %d, SMAWK says %d",
								seed, sh.m, sh.n, model, i, got[i], want[i])
						}
					}
				}
				got, err := RowMinimaPRAM(NewPRAM(CRCW, sh.n), a)
				check("CRCW", got, err)
				got, err = RowMinimaPRAM(NewPRAM(CREW, sh.n), a)
				check("CREW", got, err)
				v, w, f := netInputs(a)
				for _, nk := range networkKinds {
					got, err := RowMinimaHypercube(NewNetworkFor(nk.kind, sh.m, sh.n), v, w, f)
					check(nk.name, got, err)
				}
			}
		}
	}
}

func TestCrossModelStaircaseConformance(t *testing.T) {
	shapes := []struct{ m, n int }{{1, 30}, {9, 21}, {24, 24}, {40, 11}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range shapes {
			for _, a := range []Matrix{
				marray.RandomStaircaseMonge(rng, sh.m, sh.n),
				marray.RandomStaircaseMongeInt(rng, sh.m, sh.n, 3),
			} {
				want, err := StaircaseRowMinima(a)
				if err != nil {
					t.Fatalf("seed=%d %dx%d sequential: %v", seed, sh.m, sh.n, err)
				}
				check := func(model string, got []int, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("seed=%d %dx%d %s: %v", seed, sh.m, sh.n, model, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed=%d %dx%d %s: row %d min at col %d, sequential says %d",
								seed, sh.m, sh.n, model, i, got[i], want[i])
						}
					}
				}
				got, err := StaircaseRowMinimaPRAM(NewPRAM(CRCW, sh.n), a)
				check("CRCW", got, err)
				got, err = StaircaseRowMinimaPRAM(NewPRAM(CREW, sh.n), a)
				check("CREW", got, err)
				v, w, f := netInputs(a)
				bound := make([]int, sh.m)
				for i := range bound {
					bound[i] = marray.BoundaryOf(a, i)
				}
				for _, nk := range networkKinds {
					got, err := StaircaseRowMinimaHypercube(NewNetworkFor(nk.kind, sh.m, sh.n), v, bound, w, f)
					check(nk.name, got, err)
				}
			}
		}
	}
}

// workerCounts are the pool sizes the determinism tests sweep: serial,
// whatever the host offers, and an odd count that divides no chunk count
// evenly.
func workerCounts() []int {
	counts := []int{1, runtime.GOMAXPROCS(0), 5}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

type pramRun struct {
	idx               []int
	time, steps, work int64
}

// TestWorkerCountDeterminismPRAM asserts the exec runtime's contract on
// the PRAM: outputs and every charged counter are identical whether the
// pool has one worker or many. n is chosen large enough that supersteps
// exceed the runtime's serial cutoff and genuinely dispatch in chunks.
func TestWorkerCountDeterminismPRAM(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(7))
	monge := marray.RandomMongeInt(rng, n, n, 3)
	stair := marray.RandomStaircaseMongeInt(rng, n, n, 3)

	run := func(w int) (rowMin, stairMin pramRun) {
		mach := NewPRAM(CRCW, n)
		mach.SetWorkers(w)
		idx, err := RowMinimaPRAM(mach, monge)
		if err != nil {
			t.Fatalf("RowMinima workers=%d: %v", w, err)
		}
		rowMin = pramRun{idx, mach.Time(), mach.Steps(), mach.Work()}
		mach = NewPRAM(CRCW, n)
		mach.SetWorkers(w)
		idx, err = StaircaseRowMinimaPRAM(mach, stair)
		if err != nil {
			t.Fatalf("StaircaseRowMinima workers=%d: %v", w, err)
		}
		stairMin = pramRun{idx, mach.Time(), mach.Steps(), mach.Work()}
		return rowMin, stairMin
	}

	counts := workerCounts()
	baseRow, baseStair := run(counts[0])
	for _, w := range counts[1:] {
		gotRow, gotStair := run(w)
		for name, pair := range map[string][2]pramRun{
			"RowMinima":          {baseRow, gotRow},
			"StaircaseRowMinima": {baseStair, gotStair},
		} {
			want, got := pair[0], pair[1]
			if got.time != want.time || got.steps != want.steps || got.work != want.work {
				t.Fatalf("%s workers=%d vs %d: (time,steps,work) = (%d,%d,%d), want (%d,%d,%d)",
					name, w, counts[0], got.time, got.steps, got.work, want.time, want.steps, want.work)
			}
			for i := range want.idx {
				if got.idx[i] != want.idx[i] {
					t.Fatalf("%s workers=%d: output differs from workers=%d at row %d",
						name, w, counts[0], i)
				}
			}
		}
	}
}

// TestWorkerCountDeterminismNetwork runs a direct hypercube program —
// a scan followed by a bitonic sort, both heavy in Exchange supersteps —
// under each worker count and asserts identical cell contents and charged
// Time/Comm/Work.
func TestWorkerCountDeterminismNetwork(t *testing.T) {
	const d = 9 // 512 processors: supersteps clear the runtime's serial cutoff
	run := func(w int) (vals []int, time, comm, work int64) {
		mach := hc.New(hc.Cube, d)
		mach.SetWorkers(w)
		v := hc.NewVec(mach, func(p int) int { return int(uint32(p*2654435761) % 1009) })
		sums := hc.Scan(mach, v, func(a, b int) int { return a + b })
		hc.BitonicSort(mach, sums, func(a, b int) bool { return a < b })
		return sums.Snapshot(), mach.Time(), mach.Comm(), mach.Work()
	}

	counts := workerCounts()
	wantVals, wantTime, wantComm, wantWork := run(counts[0])
	for _, w := range counts[1:] {
		vals, time, comm, work := run(w)
		if time != wantTime || comm != wantComm || work != wantWork {
			t.Fatalf("workers=%d vs %d: (time,comm,work) = (%d,%d,%d), want (%d,%d,%d)",
				w, counts[0], time, comm, work, wantTime, wantComm, wantWork)
		}
		for p := range wantVals {
			if vals[p] != wantVals[p] {
				t.Fatalf("workers=%d: cell %d = %d, workers=%d got %d",
					w, p, vals[p], counts[0], wantVals[p])
			}
		}
	}
}
