package monge

// One benchmark per table row / figure / application of the paper. Each
// bench reports, besides wall-clock ns/op of the simulation, the charged
// parallel quantities as custom metrics:
//
//	steps/op        simulated parallel time of the machine
//	steps/lg(n)     the shape ratio against the claimed bound (flat = match)
//	work/op         processor-time product
//
// Run: go test -bench=. -benchmem   (see EXPERIMENTS.md for recorded runs)

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monge/internal/batch"
	"monge/internal/core"
	"monge/internal/dp"
	"monge/internal/faults"
	"monge/internal/geom"
	"monge/internal/hcmonge"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/rect"
	"monge/internal/smawk"
	"monge/internal/stredit"
	"monge/internal/transport"
)

var benchSizes = []int{256, 1024}

func reportMachine(b *testing.B, mach *pram.Machine, n int) {
	b.ReportMetric(float64(mach.Time())/float64(b.N), "steps/op")
	b.ReportMetric(float64(mach.Time())/float64(b.N)/float64(pram.Log2Ceil(n)), "steps/lgn")
	b.ReportMetric(float64(mach.Work())/float64(b.N), "work/op")
}

func reportNetwork(b *testing.B, total int64, n int) {
	b.ReportMetric(float64(total)/float64(b.N), "steps/op")
	b.ReportMetric(float64(total)/float64(b.N)/float64(pram.Log2Ceil(n)), "steps/lgn")
}

// --- Table 1.1: row maxima of an n x n Monge array -------------------------

func BenchmarkTable11_CRCW(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
			mach := pram.New(pram.CRCW, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MongeRowMaxima(mach, a)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable11_CREW(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
			mach := pram.New(pram.CREW, n/pram.LogLog2Ceil(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MongeRowMaxima(mach, a)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable11_Hypercube(b *testing.B) {
	for _, kind := range []hc.Kind{hc.Cube, hc.CCC, hc.Shuffle} {
		for _, n := range []int{256, 512} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
				v := idxVec(n)
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mach := hcmonge.MachineFor(kind, n, n)
					hcmonge.MongeRowMaximaOn(mach, v, v, func(x, y int) float64 { return a.At(x, y) })
					total += mach.Time()
				}
				reportNetwork(b, total, n)
			})
		}
	}
}

// Sequential baseline for the Table 1.1 problem (the Theta(m+n) bound).
func BenchmarkTable11_SMAWKSequential(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smawk.MongeRowMaxima(a)
			}
		})
	}
}

// --- Table 1.2: row minima of an n x n staircase-Monge array ---------------

func BenchmarkTable12_CRCW(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomStaircaseMonge(rand.New(rand.NewSource(2)), n, n)
			mach := pram.New(pram.CRCW, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.StaircaseRowMinima(mach, a)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable12_CREW(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomStaircaseMonge(rand.New(rand.NewSource(2)), n, n)
			mach := pram.New(pram.CREW, n/pram.LogLog2Ceil(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.StaircaseRowMinima(mach, a)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable12_Hypercube(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(2))
			a := marray.RandomStaircaseMonge(rng, n, n)
			bounds := make([]int, n)
			for i := 0; i < n; i++ {
				bounds[i] = marray.BoundaryOf(a, i)
			}
			v := idxVec(n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach := hcmonge.MachineFor(hc.Cube, n, n)
				hcmonge.StaircaseRowMinimaOn(mach, v, bounds, v, func(x, y int) float64 { return a.At(x, y) })
				total += mach.Time()
			}
			reportNetwork(b, total, n)
		})
	}
}

func BenchmarkTable12_Sequential(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := marray.RandomStaircaseMonge(rand.New(rand.NewSource(2)), n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smawk.StaircaseRowMinima(a)
			}
		})
	}
}

// --- Table 1.3: tube maxima of an n x n x n Monge-composite array ----------

func BenchmarkTable13_CRCW(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			c := marray.RandomComposite(rand.New(rand.NewSource(3)), n, n, n)
			mach := pram.New(pram.CRCW, 2*n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.TubeMaxima(mach, c)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable13_CREW(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			c := marray.RandomComposite(rand.New(rand.NewSource(3)), n, n, n)
			mach := pram.New(pram.CREW, 2*n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.TubeMaxima(mach, c)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkTable13_Hypercube(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			c := marray.RandomComposite(rand.New(rand.NewSource(3)), n, n, n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach := hcmonge.TubeMachineFor(hc.Cube, c)
				hcmonge.TubeMaximaOn(mach, c)
				total += mach.Time()
			}
			reportNetwork(b, total, n)
		})
	}
}

func BenchmarkTable13_Sequential(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			c := marray.RandomComposite(rand.New(rand.NewSource(3)), n, n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smawk.TubeMaxima(c)
			}
		})
	}
}

// --- Figure 1.1: all-farthest neighbors ------------------------------------

func BenchmarkFigure11_Farthest(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("smawk/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p, q := marray.ConvexChainPair(rand.New(rand.NewSource(4)), n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				geom.AllFarthestNeighbors(p, q)
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p, q := marray.ConvexChainPair(rand.New(rand.NewSource(4)), n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				geom.AllFarthestNeighborsBrute(p, q)
			}
		})
		b.Run(fmt.Sprintf("crcw/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p, q := marray.ConvexChainPair(rand.New(rand.NewSource(4)), n, n)
			mach := pram.New(pram.CRCW, 2*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				geom.AllFarthestNeighborsPRAM(mach, p, q)
			}
			reportMachine(b, mach, n)
		})
	}
}

// --- Figure 2.2 structure: the staircase decomposition itself --------------

func BenchmarkFigure22_Decompose(b *testing.B) {
	// The Lemma 2.2 machinery at work: staircase search dominated by the
	// feasible-region decomposition, with the ANSV primitive benchmarked
	// alongside (the paper's allocation tool).
	n := 1024
	b.Run("ansv-parallel", func(b *testing.B) {
		b.ReportAllocs()
		vals := make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		mach := pram.New(pram.CREW, n)
		arr := pram.NewArray[float64](mach, n)
		arr.Fill(vals)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pram.ANSV(mach, arr)
		}
		reportMachine(b, mach, n)
	})
	b.Run("ansv-seq", func(b *testing.B) {
		b.ReportAllocs()
		vals := make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pram.ANSVSeq(vals)
		}
	})
}

// --- Applications -----------------------------------------------------------

func BenchmarkApp1_EmptyRect(b *testing.B) {
	for _, n := range []int{256, 1024} {
		pts := make([]rect.Point, n)
		rng := rand.New(rand.NewSource(6))
		for i := range pts {
			pts[i] = rect.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		bounds := rect.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
		b.Run(fmt.Sprintf("exact-seq/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect.LargestEmptyRect(pts, bounds)
			}
		})
		b.Run(fmt.Sprintf("anchored-crcw/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(pram.CRCW, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rect.LargestAnchoredRect(mach, pts, bounds)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkApp2_MaxRect(b *testing.B) {
	for _, n := range benchSizes {
		pts := make([]rect.Point, n)
		rng := rand.New(rand.NewSource(7))
		for i := range pts {
			pts[i] = rect.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		b.Run(fmt.Sprintf("monge-seq/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect.MaxCornerRect(pts)
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect.MaxCornerRectBrute(pts)
			}
		})
		b.Run(fmt.Sprintf("crcw/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(pram.CRCW, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rect.MaxCornerRectPRAM(mach, pts)
			}
			reportMachine(b, mach, n)
		})
	}
}

func BenchmarkApp3_Neighbors(b *testing.B) {
	for _, n := range []int{128, 512} {
		p, q, ob := geom.ObstructedChains(rand.New(rand.NewSource(8)), n, n)
		obs := []geom.Polygon{ob}
		for _, kind := range []geom.NeighborKind{geom.NearestInvisible, geom.FarthestInvisible} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				mach := pram.New(pram.CRCW, 2*n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					geom.Neighbors(kind, mach, p, q, obs)
				}
				reportMachine(b, mach, n)
			})
		}
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				geom.NeighborsBrute(geom.NearestInvisible, p, q, obs)
			}
		})
	}
}

func BenchmarkApp4_StringEdit(b *testing.B) {
	c := stredit.UnitCosts()
	for _, n := range []int{64, 128} {
		rng := rand.New(rand.NewSource(9))
		x := randStr(rng, n)
		y := randStr(rng, n)
		b.Run(fmt.Sprintf("wagner-fischer/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stredit.Distance(x, y, c)
			}
		})
		b.Run(fmt.Sprintf("monge-pram/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(pram.CRCW, n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stredit.DistancePRAM(mach, x, y, c)
			}
			reportMachine(b, mach, n)
		})
		b.Run(fmt.Sprintf("wavefront-pram/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(pram.CRCW, n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stredit.DistanceWavefront(mach, x, y, c)
			}
			reportMachine(b, mach, n)
		})
	}
	b.Run("hypercube/n=32", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(9))
		x := randStr(rng, 32)
		y := randStr(rng, 32)
		var total int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rep := stredit.DistanceHypercube(hc.Cube, x, y, c)
			total += rep.Time
		}
		reportNetwork(b, total, 32)
	})
}

// --- Extensions: Monge-powered DP and the transportation greedy ------------

func BenchmarkExtension_LWS(b *testing.B) {
	n := 4096
	rng := rand.New(rand.NewSource(10))
	node := make([]float64, n+1)
	for i := range node {
		node[i] = rng.Float64()
	}
	w := func(i, j int) float64 {
		d := float64(j - i)
		return 3*d*d/float64(n) + node[i] // convex in the gap: Monge
	}
	b.Run("concave-stack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dp.LWS(n, w)
		}
	})
	b.Run("quadratic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dp.LWSBrute(n, w)
		}
	})
}

func BenchmarkExtension_Transport(b *testing.B) {
	m, n := 512, 512
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, m)
	bb := make([]float64, n)
	total := 0.0
	for i := range a {
		a[i] = float64(1 + rng.Intn(50))
		total += a[i]
	}
	per := total / float64(n)
	for j := range bb {
		bb[j] = per
	}
	c := marray.RandomMonge(rng, m, n)
	b.Run("hoffman-greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := transport.Greedy(a, bb, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func idxVec(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

func randStr(rng *rand.Rand, n int) string {
	bs := make([]rune, n)
	for i := range bs {
		bs[i] = rune('a' + rng.Intn(4))
	}
	return string(bs)
}

// --- Runtime: the persistent worker pool under row-minima workloads --------

// BenchmarkRuntime_RowMinimaWorkers runs the Table 1.1 CRCW workload with
// explicit pool sizes. The runtime's chunking contract makes the charged
// metrics identical across worker counts (TestWorkerCountDeterminism pins
// this); what varies is simulator wall-clock, which is the overhead this
// benchmark watches. Compare against BenchmarkStepLoop_* in internal/exec
// for the isolated dispatch cost.
func BenchmarkRuntime_RowMinimaWorkers(b *testing.B) {
	for _, n := range []int{512, 1024, 4096} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
				mach := pram.New(pram.CRCW, n)
				mach.SetWorkers(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.RowMinima(mach, a)
				}
				reportMachine(b, mach, n)
			})
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---------------------

// BenchmarkAblation_LeafReduction isolates the CRCW doubly-logarithmic
// tournament against the CREW binary tree in the searching recursion's
// leaves: same declared processors, same array, different machine mode.
func BenchmarkAblation_LeafReduction(b *testing.B) {
	n := 2048
	a := marray.RandomMonge(rand.New(rand.NewSource(12)), n, n)
	for _, mode := range []pram.Mode{pram.CRCW, pram.CREW} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(mode, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RowMinima(mach, a)
			}
			reportMachine(b, mach, n)
		})
	}
}

// BenchmarkAblation_AllocationVsSort contrasts the closed-form
// prefix-scan processor allocation the core algorithms use against the
// bitonic sort the paper's Lemma 2.2 mentions ("ANSV followed by
// sorting"): the sort costs an extra lg n factor in charged steps, which
// is why the implementation avoids it.
func BenchmarkAblation_AllocationVsSort(b *testing.B) {
	n := 4096
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.Run("prefix-scan-allocation", func(b *testing.B) {
		b.ReportAllocs()
		mach := pram.New(pram.CREW, n)
		arr := pram.NewArray[float64](mach, n)
		arr.Fill(vals)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pram.Scan(mach, arr, func(x, y float64) float64 { return x + y })
		}
		reportMachine(b, mach, n)
	})
	b.Run("bitonic-sort-allocation", func(b *testing.B) {
		b.ReportAllocs()
		mach := pram.New(pram.CREW, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pram.SortPadded(mach, vals, func(x, y float64) bool { return x < y }, math.Inf(1))
		}
		reportMachine(b, mach, n)
	})
}

// --- Robustness: disabled-fault overhead ------------------------------------

// BenchmarkRowMinima measures what the fault/cancellation machinery costs
// when it is NOT in use — the acceptance bar is <2% on the default
// (faults=off) configuration versus the pre-robustness runtime, which the
// armed-hooks sub-benchmark brackets from above: "off" takes the fast
// dispatch path (one nil-injector check per superstep), "armed" attaches
// a never-cancelled context so every superstep goes through the
// cancellable Run dispatch with a nil stall predicate. Recorded in
// EXPERIMENTS.md under "Fault injection".
func BenchmarkRowMinima(b *testing.B) {
	const n = 1024
	a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
	// faults=off also runs at n=4096: that is the allocation-profile row
	// the scratch arenas are gated on (see BENCH_alloc.json and the
	// "Allocation profile" section of EXPERIMENTS.md).
	for _, fn := range []int{n, 4096} {
		a := marray.RandomMonge(rand.New(rand.NewSource(1)), fn, fn)
		b.Run(fmt.Sprintf("faults=off/n=%d", fn), func(b *testing.B) {
			b.ReportAllocs()
			mach := pram.New(pram.CRCW, fn)
			mach.SetFaults(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RowMinima(mach, a)
			}
			reportMachine(b, mach, fn)
		})
	}
	b.Run("hooks=armed", func(b *testing.B) {
		b.ReportAllocs()
		mach := pram.New(pram.CRCW, n)
		mach.SetFaults(nil)
		mach.SetContext(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.RowMinima(mach, a)
		}
		reportMachine(b, mach, n)
	})
	b.Run("faults=0.05", func(b *testing.B) {
		b.ReportAllocs()
		mach := pram.New(pram.CRCW, n)
		mach.SetFaults(faults.New(1, 0.05))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.RowMinima(mach, a)
		}
		reportMachine(b, mach, n)
	})
}

// --- Observability: disabled-observer overhead ------------------------------

// BenchmarkObsOverhead guards the "free when off" contract of the
// observability layer: with no global observer installed, every
// instrumentation hook in the machines and the worker pool is a single
// nil check (pool path: one atomic pointer load), so the obs=off
// sub-benchmark must match the pre-observability runtime. obs=on
// brackets the cost of live counters from above; tracing is measured
// separately since span capture allocates. Recorded in EXPERIMENTS.md
// under "Observability".
func BenchmarkObsOverhead(b *testing.B) {
	const n = 1024
	a := marray.RandomMonge(rand.New(rand.NewSource(1)), n, n)
	prev := obs.Global()
	defer obs.SetGlobal(prev)
	run := func(b *testing.B) {
		mach := pram.New(pram.CRCW, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.RowMinima(mach, a)
		}
		reportMachine(b, mach, n)
	}
	b.Run("obs=off", func(b *testing.B) {
		b.ReportAllocs()
		obs.SetGlobal(nil)
		run(b)
	})
	b.Run("obs=on", func(b *testing.B) {
		b.ReportAllocs()
		obs.SetGlobal(obs.NewObserver())
		run(b)
	})
	b.Run("obs=on+trace", func(b *testing.B) {
		b.ReportAllocs()
		o := obs.NewObserver()
		o.EnableTracing(0)
		obs.SetGlobal(o)
		run(b)
	})
}

// BenchmarkBackendKernels is the per-kernel PRAM-vs-native latency and
// allocation comparison recorded in EXPERIMENTS.md ("Execution
// backends"): each of the three query kinds runs through a steady-state
// batch.Driver on both backends, same inputs, same driver seam. The
// native rows are the serving numbers; the PRAM rows price the
// simulation (charged supersteps, write-buffer bookkeeping) that the
// conformance oracle pays on every query.
func BenchmarkBackendKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	const tubeN = 64
	a := marray.RandomMonge(rng, n, n)
	s := marray.RandomStaircaseMonge(rng, n, n)
	c := marray.RandomComposite(rng, tubeN, tubeN, tubeN)
	for _, be := range []Backend{BackendPRAM, BackendNative} {
		d := batch.NewWithBackend(CRCW, be)
		defer d.Close()
		b.Run(fmt.Sprintf("backend=%s/smawk/n=%d", be, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.RowMinima(a)
			}
		})
		b.Run(fmt.Sprintf("backend=%s/staircase/n=%d", be, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.StaircaseRowMinima(s)
			}
		})
		b.Run(fmt.Sprintf("backend=%s/tube/n=%d", be, tubeN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.TubeMaxima(c)
			}
		})
	}
}
