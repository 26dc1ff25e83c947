// Command mongeserve runs the load-disciplined JSON serving front end:
// a DriverPool behind admission control, exposed over HTTP.
//
//	mongeserve -addr :8080 -workers 4 -max-inflight 64 -queue 128 -hedge-after 5ms
//
// The pool serves on the native goroutine kernels (BackendNative):
// answers are index-exact with the PRAM simulator, which stays the
// reproduction backend and the oracle, so the PRAM counters of
// /metrics read 0 here.
//
// Endpoints: POST /v1/query, POST /v1/index, GET /v1/stats,
// GET /metrics, GET /debug/vars. See the README "Load discipline"
// section for the request schema and the typed-error-to-status mapping.
// SIGINT/SIGTERM drains the pool before exiting (in-flight queries
// finish; new submissions get 503).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"monge"
	"monge/internal/admit"
	"monge/internal/httpfront"
	"monge/internal/obs"
	"monge/internal/serve"
)

func main() { os.Exit(mainImpl(os.Args[1:], os.Stderr)) }

func mainImpl(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("mongeserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "queue depth (0 = one per worker)")
		maxInflight = fs.Int("max-inflight", 0, "admission inflight cap (0 = 4x workers)")
		shedFrac    = fs.Float64("shed-fraction", 0, "shed priority<=0 work above this fraction of the cap (0 = 0.75)")
		tenantRate  = fs.Float64("tenant-rate", 0, "per-tenant quota tokens/sec (0 = no quotas)")
		tenantBurst = fs.Int("tenant-burst", 0, "per-tenant quota burst")
		retryMax    = fs.Int("retry-max", 1, "max attempts per request (1 = no retries)")
		hedgeAfter  = fs.Duration("hedge-after", 0, "issue a hedged attempt after this latency (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	obs.SetGlobal(obs.NewObserver())
	pool := monge.NewDriverPoolOpts(monge.CRCW, monge.PoolOptions{
		Workers:    *workers,
		Backend:    monge.BackendNative,
		QueueDepth: *queue,
		Admission: &serve.Admission{
			MaxInflight:  *maxInflight,
			ShedFraction: *shedFrac,
			TenantRate:   *tenantRate,
			TenantBurst:  *tenantBurst,
			RetryMax:     *retryMax,
			HedgeAfter:   *hedgeAfter,
		},
	})
	var front *admit.Front = pool.Front()

	// ReadTimeout bounds the whole request read, body included, so a
	// client that trickles its body cannot hold the connection and its
	// read buffer indefinitely; it also caps keep-alive idle time.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpfront.New(front).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stderr, "mongeserve: serving on %s (workers=%d)\n", *addr, pool.Stats().Workers)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "mongeserve: %v\n", err)
			return 1
		}
	case <-ctx.Done():
		fmt.Fprintln(stderr, "mongeserve: draining")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shctx)
		pool.Close()
	}
	return 0
}
