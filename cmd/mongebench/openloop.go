package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"monge/internal/admit"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/serve"
	"monge/internal/smawk"
)

// latencySchema is the version tag of the -latency-out JSON.
const latencySchema = "monge-latency/v1"

// latencyPoint is one open-loop rung: queries fired at TargetQPS
// regardless of completions, through the pool's admission front.
type latencyPoint struct {
	Multiplier    float64 `json:"multiplier"`
	TargetQPS     float64 `json:"target_qps"`
	AchievedQPS   float64 `json:"achieved_qps"` // completed successes per second of the rung
	Sent          int     `json:"sent"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"`
	Deadline      int64   `json:"deadline_expired"`
	RejectionRate float64 `json:"rejection_rate"`
	P50us         int64   `json:"p50_us"`
	P95us         int64   `json:"p95_us"`
	P99us         int64   `json:"p99_us"`
}

// latencyLadder is the -latency-out document.
type latencyLadder struct {
	Schema          string  `json:"schema"`
	Backend         string  `json:"backend"`
	Workers         int     `json:"workers"`
	CPUs            int     `json:"cpus"`
	BaseQPS         float64 `json:"base_qps"`
	QueriesPerPoint int     `json:"queries_per_point"`
	// MaxLowLoadRejection is the acceptance cap the CI serve-chaos job
	// enforces on a fresh run's 0.5x rung rejection rate: at half the
	// calibrated rate the front must admit essentially everything.
	MaxLowLoadRejection float64        `json:"max_low_load_rejection"`
	Points              []latencyPoint `json:"points"`
}

// openLoopExp drives the serving stack open-loop: requests fire at a
// fixed arrival rate whether or not earlier ones have completed, which
// is what exposes queueing latency and forces the admission front to
// shed — a closed loop self-throttles and can never overload itself.
// Three rungs run at 0.5x, 1x, and 2x of -qps (the 2x rung deliberately
// saturates), each firing -queries requests through an admission front
// with default fail-fast policy. Successful answers are checked
// index-for-index against the sequential facade; failures must be typed
// (ErrOverloaded / ErrDeadlineExceeded / ErrCanceled), anything else
// aborts the experiment.
func openLoopExp() {
	rng := rand.New(rand.NewSource(seed))
	n := min(maxN, 256)
	tubeN := min(n, 16)

	type prep struct {
		q    serve.Query
		idx  []int
		tubJ [][]int
	}
	var mix []prep
	for i := 0; i < 3; i++ {
		a := marray.RandomMonge(rng, n, n)
		mix = append(mix, prep{q: serve.Query{Kind: serve.RowMinima, A: a}, idx: smawk.RowMinima(a)})
	}
	s := marray.RandomStaircaseMonge(rng, n, n)
	mix = append(mix, prep{q: serve.Query{Kind: serve.StaircaseRowMinima, A: s}, idx: smawk.StaircaseRowMinima(s)})
	c := marray.RandomComposite(rng, tubeN, tubeN, tubeN)
	tj, _ := smawk.TubeMaxima(c)
	mix = append(mix, prep{q: serve.Query{Kind: serve.TubeMaxima, C: c}, tubJ: tj})

	pool := serve.New(pram.CRCW, serve.Options{Workers: workersN, Context: benchCtx, Backend: backendBE})
	defer pool.Close()
	front := admit.New(pool, &serve.Admission{})

	printf("\n== Open-loop serving latency: %d queries per rung, %d workers, %s backend, base %.0f qps ==\n",
		queriesN, pool.Workers(), backendBE, qpsLimit)
	printf("%6s %10s %10s %10s %10s %10s %9s %6s %6s\n",
		"mult", "target", "achieved", "p50", "p95", "p99", "rejected", "ddl", "match")

	ladder := latencyLadder{
		Schema:              latencySchema,
		Backend:             backendF,
		Workers:             pool.Workers(),
		CPUs:                runtime.NumCPU(),
		BaseQPS:             qpsLimit,
		QueriesPerPoint:     queriesN,
		MaxLowLoadRejection: 0.05,
	}

	baseCtx := benchCtx
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	for _, mult := range []float64{0.5, 1, 2} {
		target := qpsLimit * mult
		interval := time.Duration(float64(time.Second) / target)
		var (
			hist       obs.Hist
			ok         atomic.Int64
			rejected   atomic.Int64
			ddl        atomic.Int64
			mismatches atomic.Int64
			badErr     atomic.Pointer[error]
			wg         sync.WaitGroup
		)
		start := time.Now()
		for i := 0; i < queriesN; i++ {
			// Open loop: the i-th arrival is pinned to start + i*interval
			// no matter how the previous requests are doing.
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				want := mix[i%len(mix)]
				t0 := time.Now()
				res := front.Do(baseCtx, admit.Request{Query: want.q})
				lat := time.Since(t0)
				switch {
				case res.Err == nil:
					hist.Observe(lat)
					ok.Add(1)
					for r := range want.idx {
						if res.Idx[r] != want.idx[r] {
							mismatches.Add(1)
						}
					}
					for x := range want.tubJ {
						for k := range want.tubJ[x] {
							if res.TubeJ[x][k] != want.tubJ[x][k] {
								mismatches.Add(1)
							}
						}
					}
				case errors.Is(res.Err, serve.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(res.Err, serve.ErrDeadlineExceeded), errors.Is(res.Err, merr.ErrCanceled):
					ddl.Add(1)
				default:
					e := res.Err
					badErr.Store(&e)
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if e := badErr.Load(); e != nil {
			merr.Throwf(merr.ErrNotMonge, "openloop: untyped serving error: %v", *e)
		}
		if m := mismatches.Load(); m > 0 {
			merr.Throwf(merr.ErrNotMonge, "openloop: %d index mismatches against the sequential facade", m)
		}
		pt := latencyPoint{
			Multiplier:  mult,
			TargetQPS:   target,
			AchievedQPS: float64(ok.Load()) / elapsed.Seconds(),
			Sent:        queriesN,
			OK:          ok.Load(),
			Rejected:    rejected.Load(),
			Deadline:    ddl.Load(),
			P50us:       hist.Quantile(0.50).Microseconds(),
			P95us:       hist.Quantile(0.95).Microseconds(),
			P99us:       hist.Quantile(0.99).Microseconds(),
		}
		pt.RejectionRate = float64(pt.Rejected) / float64(pt.Sent)
		ladder.Points = append(ladder.Points, pt)
		printf("%5.1fx %10.0f %10.0f %10v %10v %10v %8.1f%% %6d %6s\n",
			mult, target, pt.AchievedQPS,
			time.Duration(pt.P50us)*time.Microsecond,
			time.Duration(pt.P95us)*time.Microsecond,
			time.Duration(pt.P99us)*time.Microsecond,
			100*pt.RejectionRate, pt.Deadline, "ok")
	}
	front.Drain()

	if latOut != "" {
		if err := writeLatencyLadder(&ladder, latOut); err != nil {
			merr.Throwf(merr.ErrNotMonge, "openloop: writing -latency-out: %v", err)
		}
	}
}

// writeLatencyLadder dumps the ladder as indented JSON ("-" = stdout).
func writeLatencyLadder(l *latencyLadder, path string) error {
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = out.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
