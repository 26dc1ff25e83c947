// Package obs is the observability layer of the simulated machines: a
// zero-dependency (stdlib-only) set of per-site metric counters and a
// span-based superstep tracer, threaded through the execution runtime
// (internal/exec), both machine families (internal/pram and
// internal/hypercube, including the cube-connected-cycles and
// shuffle-exchange kinds), and the hcmonge driver layer.
//
// # Sites and counters
//
// A site is one instrumented component — a machine model ("pram",
// "hypercube", "cube-connected-cycles", "shuffle-exchange") or a driver
// layer ("hcmonge") — and owns one Counters block of atomic counters:
// charged supersteps/time/work, shared-memory reads and writes, write
// conflicts by resolution mode, link messages and bytes, pool dispatch
// chunks, and the fault recoveries charged at that site. The counters
// are cumulative across every machine of the site that observed the same
// Observer (the recursive children of ParallelDo/Subcubes inherit their
// parent's handles), so one Observer sees a whole algorithm run.
//
// # Cost contract
//
// Everything here is designed around "free when off": a machine holds a
// nil *Counters / nil *Tracer when no observer is installed, and every
// instrumentation point is a single nil check on that cached field — no
// global load, no interface call, no allocation. When counting is on,
// each point is one atomic add; when tracing is on, each charged
// superstep additionally records one fixed-size span under a mutex at
// the step barrier (never inside a parallel loop body).
// BenchmarkObsOverhead in the repository root guards the disabled path
// against regressions.
//
// # Process-wide observer
//
// SetGlobal installs the Observer that newly created machines attach by
// default, mirroring exec.SetGlobalSink and faults.SetGlobal; this is
// how whole-process harnesses (mongebench -metrics / -trace-out)
// observe the machines that algorithms size and create internally.
// Tests should prefer per-machine SetObserver.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counters is the per-site counter block. All fields are atomic;
// increment them directly (c.SharedReads.Add(1)) after a nil check on
// the *Counters handle. Fields that do not apply to a site stay zero:
// the network machines never touch the shared-memory fields, the PRAM
// never touches the link fields.
type Counters struct {
	// Supersteps counts charged superstep barriers (PRAM Step/StepCost,
	// network Local and Exchange/CondSwap steps).
	Supersteps atomic.Int64
	// ChargedTime and ChargedWork accumulate the simulated cost model's
	// time and work charges, including fault-recovery inflation — the
	// quantities the complexity tables measure.
	ChargedTime atomic.Int64
	ChargedWork atomic.Int64

	// SharedReads counts committed-state reads through pram.Array.Read;
	// SharedWrites counts buffered writes flushed at step barriers.
	SharedReads  atomic.Int64
	SharedWrites atomic.Int64

	// Write conflicts by resolution mode: SamePid is a later write by the
	// same processor overwriting its own earlier one (legal in both
	// modes, resolved by program order), Priority is a CRCW lowest-pid
	// resolution between distinct processors, CREW is a detected CREW
	// violation (thrown as merr.ErrWriteConflict after counting).
	ConflictsSamePid  atomic.Int64
	ConflictsPriority atomic.Int64
	ConflictsCREW     atomic.Int64

	// LinkMessages counts values carried across network edges, including
	// fault retransmissions; LinkBytes charges WordBytes per message.
	LinkMessages atomic.Int64
	LinkBytes    atomic.Int64

	// PoolChunks counts worker-pool chunks the site's loops were
	// dispatched as (1 per inline loop); PoolLoops counts the loops and
	// PoolInline the subset that ran inline on the calling goroutine
	// (below the serial cutoff or a single chunk). The "exec.pool" site
	// aggregates these across all machines.
	PoolChunks atomic.Int64
	PoolLoops  atomic.Int64
	PoolInline atomic.Int64

	// Fault recoveries charged at this site (subset of the injector's
	// process-wide totals): chunk stalls re-dispatched, link messages
	// retransmitted after drops/garbles, supersteps re-run on timeout.
	FaultStalls   atomic.Int64
	FaultDrops    atomic.Int64
	FaultGarbles  atomic.Int64
	FaultTimeouts atomic.Int64

	// Searches counts top-level algorithm invocations (the hcmonge driver
	// entry points).
	Searches atomic.Int64

	// Arena recycling efficacy: ArenaHits counts scratch-arena checkouts
	// served from a free-list, ArenaMisses the checkouts that fell through
	// to the allocator, and BytesRecycled the backing bytes the hits
	// reissued instead of allocating. A healthy steady state shows misses
	// plateauing (warm-up only) while hits and bytes keep growing.
	ArenaHits     atomic.Int64
	ArenaMisses   atomic.Int64
	BytesRecycled atomic.Int64

	// Query-serving counters (the "serve" site, internal/serve driver
	// pool). QueriesServed counts completed pool queries; QueueDepthPeak
	// is a high-water gauge of the submit queue (raise with StoreMax);
	// ShardImbalance is the spread between the busiest and idlest
	// worker's served-query counts, recorded when the pool closes.
	QueriesServed  atomic.Int64
	QueueDepthPeak atomic.Int64
	ShardImbalance atomic.Int64

	// QueueDepth is a point-in-time gauge of the submit queue (stored,
	// not accumulated, at every enqueue and dequeue), complementing the
	// QueueDepthPeak high-water mark in the expvar snapshot.
	QueueDepth atomic.Int64

	// Load-discipline counters (internal/admit front over the serve
	// pool). Admitted counts queries that passed every admission check;
	// Rejected counts hard rejections (inflight cap, tenant quota, full
	// queue); Shed the subset of rejections that dropped low-priority
	// work under load before the hard cap; Hedged issued second
	// attempts; Retried re-submissions (policy retries and recovered
	// injected ticket drops); DeadlineExpired queries dropped, at
	// admission or before evaluation, because their context had already
	// expired.
	Admitted        atomic.Int64
	Rejected        atomic.Int64
	Shed            atomic.Int64
	Hedged          atomic.Int64
	Retried         atomic.Int64
	DeadlineExpired atomic.Int64

	// QueueWait is the enqueue-to-dequeue latency histogram of the
	// serve pool's submit queue, recorded only while an observer is
	// installed (the wall-clock reads stay off the default path).
	QueueWait Hist
}

// StoreMax raises the counter to v if v exceeds its current value — the
// idiom for high-water gauges (queue depth peaks) kept in an otherwise
// monotonic counter block.
func StoreMax(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// WordBytes is the simulated size of one exchanged value: every machine
// word in the model is charged as a 64-bit quantity.
const WordBytes = 8

// CounterSnapshot is a plain-value copy of a Counters block, the JSON
// export schema of the metrics layer.
type CounterSnapshot struct {
	Supersteps        int64 `json:"supersteps"`
	ChargedTime       int64 `json:"charged_time"`
	ChargedWork       int64 `json:"charged_work"`
	SharedReads       int64 `json:"shared_reads,omitempty"`
	SharedWrites      int64 `json:"shared_writes,omitempty"`
	ConflictsSamePid  int64 `json:"conflicts_same_pid,omitempty"`
	ConflictsPriority int64 `json:"conflicts_priority,omitempty"`
	ConflictsCREW     int64 `json:"conflicts_crew,omitempty"`
	LinkMessages      int64 `json:"link_messages,omitempty"`
	LinkBytes         int64 `json:"link_bytes,omitempty"`
	PoolChunks        int64 `json:"pool_chunks,omitempty"`
	PoolLoops         int64 `json:"pool_loops,omitempty"`
	PoolInline        int64 `json:"pool_inline,omitempty"`
	FaultStalls       int64 `json:"fault_stalls,omitempty"`
	FaultDrops        int64 `json:"fault_drops,omitempty"`
	FaultGarbles      int64 `json:"fault_garbles,omitempty"`
	FaultTimeouts     int64 `json:"fault_timeouts,omitempty"`
	Searches          int64 `json:"searches,omitempty"`
	ArenaHits         int64 `json:"arena_hits,omitempty"`
	ArenaMisses       int64 `json:"arena_misses,omitempty"`
	BytesRecycled     int64 `json:"bytes_recycled,omitempty"`
	QueriesServed     int64 `json:"queries_served,omitempty"`
	QueueDepthPeak    int64 `json:"queue_depth_peak,omitempty"`
	ShardImbalance    int64 `json:"shard_imbalance,omitempty"`

	QueueDepth      int64 `json:"queue_depth,omitempty"`
	Admitted        int64 `json:"admitted,omitempty"`
	Rejected        int64 `json:"rejected,omitempty"`
	Shed            int64 `json:"shed,omitempty"`
	Hedged          int64 `json:"hedged,omitempty"`
	Retried         int64 `json:"retried,omitempty"`
	DeadlineExpired int64 `json:"deadline_expired,omitempty"`

	// QueueWaitUS are the queue-wait histogram buckets, log-linear in
	// microseconds as HistBuckets describes (bucket i < 8 counts waits
	// of i µs; from 8 µs up, 8 buckets per octave), with the approximate
	// p50/p95/p99 alongside for dashboards that do not want to fold
	// buckets themselves.
	QueueWaitUS  []int64 `json:"queue_wait_us,omitempty"`
	QueueWaitP50 int64   `json:"queue_wait_p50_us,omitempty"`
	QueueWaitP95 int64   `json:"queue_wait_p95_us,omitempty"`
	QueueWaitP99 int64   `json:"queue_wait_p99_us,omitempty"`
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Supersteps:        c.Supersteps.Load(),
		ChargedTime:       c.ChargedTime.Load(),
		ChargedWork:       c.ChargedWork.Load(),
		SharedReads:       c.SharedReads.Load(),
		SharedWrites:      c.SharedWrites.Load(),
		ConflictsSamePid:  c.ConflictsSamePid.Load(),
		ConflictsPriority: c.ConflictsPriority.Load(),
		ConflictsCREW:     c.ConflictsCREW.Load(),
		LinkMessages:      c.LinkMessages.Load(),
		LinkBytes:         c.LinkBytes.Load(),
		PoolChunks:        c.PoolChunks.Load(),
		PoolLoops:         c.PoolLoops.Load(),
		PoolInline:        c.PoolInline.Load(),
		FaultStalls:       c.FaultStalls.Load(),
		FaultDrops:        c.FaultDrops.Load(),
		FaultGarbles:      c.FaultGarbles.Load(),
		FaultTimeouts:     c.FaultTimeouts.Load(),
		Searches:          c.Searches.Load(),
		ArenaHits:         c.ArenaHits.Load(),
		ArenaMisses:       c.ArenaMisses.Load(),
		BytesRecycled:     c.BytesRecycled.Load(),
		QueriesServed:     c.QueriesServed.Load(),
		QueueDepthPeak:    c.QueueDepthPeak.Load(),
		ShardImbalance:    c.ShardImbalance.Load(),
		QueueDepth:        c.QueueDepth.Load(),
		Admitted:          c.Admitted.Load(),
		Rejected:          c.Rejected.Load(),
		Shed:              c.Shed.Load(),
		Hedged:            c.Hedged.Load(),
		Retried:           c.Retried.Load(),
		DeadlineExpired:   c.DeadlineExpired.Load(),
		QueueWaitUS:       c.QueueWait.Snapshot(),
		QueueWaitP50:      c.QueueWait.Quantile(0.50).Microseconds(),
		QueueWaitP95:      c.QueueWait.Quantile(0.95).Microseconds(),
		QueueWaitP99:      c.QueueWait.Quantile(0.99).Microseconds(),
	}
}

// Observer owns the per-site counter registry and the optional tracer of
// one instrumented run. The zero value is not usable; create observers
// with NewObserver. Safe for concurrent use.
type Observer struct {
	mu     sync.Mutex
	sites  map[string]*Counters
	tracer *Tracer

	poolOnce sync.Once
	pool     *Counters
}

// NewObserver returns an empty observer with tracing off.
func NewObserver() *Observer {
	return &Observer{sites: make(map[string]*Counters)}
}

// Site returns the counter block for the named site, creating it on
// first use. Returns nil on a nil observer, so machines can write
// `m.obs = o.Site(model)` unconditionally.
func (o *Observer) Site(name string) *Counters {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	c := o.sites[name]
	if c == nil {
		c = &Counters{}
		o.sites[name] = c
	}
	o.mu.Unlock()
	return c
}

// Pool returns the cached counter block of the "exec.pool" site — the
// worker-pool dispatch path is hot enough that the Site map lookup (a
// mutex acquisition) matters, so the handle is resolved once.
func (o *Observer) Pool() *Counters {
	if o == nil {
		return nil
	}
	o.poolOnce.Do(func() { o.pool = o.Site("exec.pool") })
	return o.pool
}

// EnableTracing attaches a span tracer holding at most cap spans
// (DefaultTraceCap when cap <= 0) and returns it. Idempotent: a second
// call returns the existing tracer.
func (o *Observer) EnableTracing(cap int) *Tracer {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tracer == nil {
		o.tracer = newTracer(cap)
	}
	return o.tracer
}

// Tracer returns the attached tracer, or nil when tracing is off. Nil
// receivers return nil, matching Site.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	t := o.tracer
	o.mu.Unlock()
	return t
}

// Snapshot returns the per-site counter values keyed by site name.
func (o *Observer) Snapshot() map[string]CounterSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]CounterSnapshot, len(o.sites))
	for name, c := range o.sites {
		out[name] = c.Snapshot()
	}
	return out
}

// WriteJSON writes the per-site counters as an indented JSON document:
//
//	{"sites": {"pram": {"supersteps": ..., ...}, ...}}
func (o *Observer) WriteJSON(w io.Writer) error {
	doc := struct {
		Sites map[string]CounterSnapshot `json:"sites"`
	}{Sites: o.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTable writes the per-site counters as an aligned human-readable
// table (the mongebench -metrics report), sites sorted by name. The
// column set is fixed so harnesses can parse it.
func (o *Observer) WriteTable(w io.Writer) error {
	snap := o.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "%-22s %10s %12s %14s %12s %12s %10s %12s %12s %10s %10s %8s %8s %10s %10s %12s %8s %8s %6s\n",
		"site", "supersteps", "time", "work", "reads", "writes", "conflicts", "link-msgs", "link-bytes", "loops", "chunks", "faults", "searches", "arena-hit", "arena-miss", "recycled-B",
		"queries", "queue-pk", "imbal"); err != nil {
		return err
	}
	for _, name := range names {
		s := snap[name]
		conflicts := s.ConflictsSamePid + s.ConflictsPriority + s.ConflictsCREW
		faultsTotal := s.FaultStalls + s.FaultDrops + s.FaultGarbles + s.FaultTimeouts
		if _, err := fmt.Fprintf(w, "%-22s %10d %12d %14d %12d %12d %10d %12d %12d %10d %10d %8d %8d %10d %10d %12d %8d %8d %6d\n",
			name, s.Supersteps, s.ChargedTime, s.ChargedWork, s.SharedReads, s.SharedWrites,
			conflicts, s.LinkMessages, s.LinkBytes, s.PoolLoops, s.PoolChunks, faultsTotal, s.Searches,
			s.ArenaHits, s.ArenaMisses, s.BytesRecycled,
			s.QueriesServed, s.QueueDepthPeak, s.ShardImbalance); err != nil {
			return err
		}
	}
	return nil
}

// global is the process-wide observer newly created machines attach by
// default; nil (the default) keeps instrumentation fully off.
var global atomic.Pointer[Observer]

// SetGlobal installs the process-wide observer (nil detaches). Existing
// machines keep the handles they already captured; only machines created
// afterwards attach o.
func SetGlobal(o *Observer) {
	if o == nil {
		global.Store(nil)
		return
	}
	global.Store(o)
}

// Global returns the process-wide observer, or nil when observability is
// off. The nil fast path is one atomic pointer load.
func Global() *Observer { return global.Load() }

var expvarOnce sync.Once

// PublishExpvar publishes the process-wide observer's counter snapshot
// as the expvar variable "monge_obs" (visible on /debug/vars when an
// HTTP server runs). Idempotent; the published function re-reads
// Global() on every access, so it tracks observer swaps. Returns the
// variable name.
func PublishExpvar() string {
	expvarOnce.Do(func() {
		expvar.Publish("monge_obs", expvar.Func(func() any {
			o := Global()
			if o == nil {
				return map[string]CounterSnapshot{}
			}
			return o.Snapshot()
		}))
	})
	return "monge_obs"
}
