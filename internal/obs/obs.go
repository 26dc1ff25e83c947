// Package obs is the one instrumentation path of the repository: a
// zero-dependency (stdlib-only) set of per-site metric counters and a
// span-based superstep tracer. Both machine families (internal/pram and
// internal/hypercube, including the cube-connected-cycles and
// shuffle-exchange kinds), the worker pool (internal/exec), the hcmonge
// and native kernels, and the serving stack (internal/serve,
// internal/admit) report here.
//
// # Sites and metrics
//
// A site is one instrumented component — a machine model ("pram",
// "hypercube", "cube-connected-cycles", "shuffle-exchange"), a kernel
// layer ("hcmonge", "native"), the worker pool ("exec.pool") or the
// serving stack ("serve") — and owns one Counters block. Every metric a
// block holds is an ID declared once in the descs table below, with its
// exported name, its type (a monotonic counter or a gauge) and its
// WriteTable column; WriteJSON, the expvar "monge_obs" variable,
// WriteTable and WritePrometheus all walk that table, so a new metric is
// one ID, one descriptor line and its increment site. The counters are
// cumulative across every machine of the site that observed the same
// Observer (the recursive children of ParallelDo inherit their
// parent's handles), so one Observer sees a whole algorithm run.
//
// # Cost contract
//
// Everything here is designed around "free when off": a machine holds a
// nil *Counters / nil *Tracer when no observer is installed, and every
// instrumentation point is a single nil check on that cached handle (the
// Counters methods are nil-safe) — no global load, no interface call, no
// allocation. When counting is on, each point is one atomic add on a
// constant index; when tracing is on, each charged superstep
// additionally records one fixed-size span under a mutex at the step
// barrier (never inside a parallel loop body). BenchmarkObsOverhead in
// the repository root guards the disabled path against regressions.
//
// # Process-wide observer
//
// SetGlobal installs the Observer that newly created machines attach by
// default, mirroring faults.SetGlobal; this is how whole-process
// harnesses (mongebench -metrics / -trace-out, mongeserve's /metrics)
// observe the machines that algorithms size and create internally.
// Tests should prefer per-machine SetObserver.
package obs

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ID names one metric of a Counters block.
type ID int

// The metrics, in export order. Fields that do not apply to a site stay
// zero: the network machines never touch the shared-memory metrics, the
// PRAM never touches the link metrics.
const (
	// Supersteps counts charged superstep barriers (PRAM Step/StepCost,
	// network Local and Exchange/CondSwap steps). ChargedTime and
	// ChargedWork accumulate the simulated cost model's time and work
	// charges, including fault-recovery inflation — the quantities the
	// complexity tables measure.
	Supersteps ID = iota
	ChargedTime
	ChargedWork

	// SharedReads counts committed-state reads through pram.Array.Read;
	// SharedWrites counts buffered writes flushed at step barriers.
	SharedReads
	SharedWrites

	// Write conflicts by resolution mode: SamePid is a later write by the
	// same processor overwriting its own earlier one (legal in both
	// modes, resolved by program order), Priority is a CRCW lowest-pid
	// resolution between distinct processors, CREW is a detected CREW
	// violation (thrown as merr.ErrWriteConflict after counting).
	ConflictsSamePid
	ConflictsPriority
	ConflictsCREW

	// LinkMessages counts values carried across network edges, including
	// fault retransmissions; LinkBytes charges WordBytes per message.
	LinkMessages
	LinkBytes

	// PoolLoops counts the dispatched loops, PoolChunks the worker-pool
	// chunks they ran as (1 per inline loop), and PoolInline the loops
	// that ran inline on the calling goroutine (below the serial cutoff
	// or a single chunk). The "exec.pool" site aggregates these across
	// all machines.
	PoolLoops
	PoolChunks
	PoolInline

	// Fault recoveries charged at this site (subset of the injector's
	// process-wide totals): chunk stalls re-dispatched, link messages
	// retransmitted after drops/garbles, supersteps re-run on timeout.
	FaultStalls
	FaultDrops
	FaultGarbles
	FaultTimeouts

	// Searches counts top-level algorithm invocations (the hcmonge driver
	// entry points, native kernel calls).
	Searches

	// Arena recycling efficacy: ArenaHits counts scratch-arena checkouts
	// served from a free-list, ArenaMisses the checkouts that fell through
	// to the allocator, and BytesRecycled the backing bytes the hits
	// reissued instead of allocating. A healthy steady state shows misses
	// plateauing (warm-up only) while hits and bytes keep growing.
	ArenaHits
	ArenaMisses
	BytesRecycled

	// Query serving (the "serve" site). QueriesServed counts completed
	// pool queries; QueueDepthPeak is a high-water gauge of the submit
	// queue (raised with StoreMax); ShardImbalance is the spread between
	// the busiest and idlest worker's served-query counts, stored after
	// every served query; QueueDepth is the queue length stored at every
	// enqueue and dequeue.
	QueriesServed
	QueueDepthPeak
	ShardImbalance
	QueueDepth

	// Load discipline (internal/admit front over the serve pool).
	// Admitted counts queries that passed every admission check;
	// Rejected counts hard rejections (inflight cap, tenant quota, full
	// queue); Shed the low-priority work dropped under load before the
	// hard cap; Hedged issued second attempts; Retried re-submissions
	// (policy retries and recovered injected ticket drops);
	// DeadlineExpired queries dropped, at admission or before
	// evaluation, because their context had already expired.
	Admitted
	Rejected
	Shed
	Hedged
	Retried
	DeadlineExpired

	// WriteShardPeak is the largest number of writes that landed in one
	// of a PRAM array's 64 write-buffer shards in a single superstep —
	// the contention proxy of the sharded buffers, a high-water gauge.
	WriteShardPeak

	// (min,+) products (the "minplus" site), added once per row block:
	// MinplusAnchorRows counts the output rows the row-minima kernel
	// solved (anchor rows, rows too wide for a witness window, and every
	// row of a staircase or PRAM-driven product); MinplusWindowReads the
	// entries of B a native product's rows read, kernel queries and
	// window scans together (filling the transposed copy of B is not
	// counted); MinplusRuns the witness runs the products store.
	MinplusAnchorRows
	MinplusWindowReads
	MinplusRuns

	numIDs
)

// kind is a metric's exposition type.
type kind uint8

const (
	counter kind = iota // monotonic: only ever Add
	gauge               // a level: Store or StoreMax
)

func (k kind) String() string {
	if k == counter {
		return "counter"
	}
	return "gauge"
}

// desc declares one metric: name is its JSON key and the suffix of its
// Prometheus series (monge_<name>), col its WriteTable column header
// ("" for none; metrics sharing a header are summed into one column).
type desc struct {
	name string
	kind kind
	col  string
}

// descs is the one declaration of every metric.
var descs = [numIDs]desc{
	Supersteps:         {"supersteps", counter, "supersteps"},
	ChargedTime:        {"charged_time", counter, "time"},
	ChargedWork:        {"charged_work", counter, "work"},
	SharedReads:        {"shared_reads", counter, "reads"},
	SharedWrites:       {"shared_writes", counter, "writes"},
	ConflictsSamePid:   {"conflicts_same_pid", counter, "conflicts"},
	ConflictsPriority:  {"conflicts_priority", counter, "conflicts"},
	ConflictsCREW:      {"conflicts_crew", counter, "conflicts"},
	LinkMessages:       {"link_messages", counter, "link-msgs"},
	LinkBytes:          {"link_bytes", counter, "link-bytes"},
	PoolLoops:          {"pool_loops", counter, "loops"},
	PoolChunks:         {"pool_chunks", counter, "chunks"},
	PoolInline:         {"pool_inline", counter, ""},
	FaultStalls:        {"fault_stalls", counter, "faults"},
	FaultDrops:         {"fault_drops", counter, "faults"},
	FaultGarbles:       {"fault_garbles", counter, "faults"},
	FaultTimeouts:      {"fault_timeouts", counter, "faults"},
	Searches:           {"searches", counter, "searches"},
	ArenaHits:          {"arena_hits", counter, "arena-hit"},
	ArenaMisses:        {"arena_misses", counter, "arena-miss"},
	BytesRecycled:      {"bytes_recycled", counter, "recycled-B"},
	QueriesServed:      {"queries_served", counter, "queries"},
	QueueDepthPeak:     {"queue_depth_peak", gauge, "queue-pk"},
	ShardImbalance:     {"shard_imbalance", gauge, "imbal"},
	QueueDepth:         {"queue_depth", gauge, ""},
	Admitted:           {"admitted", counter, ""},
	Rejected:           {"rejected", counter, ""},
	Shed:               {"shed", counter, ""},
	Hedged:             {"hedged", counter, ""},
	Retried:            {"retried", counter, ""},
	DeadlineExpired:    {"deadline_expired", counter, ""},
	WriteShardPeak:     {"write_shard_peak", gauge, ""},
	MinplusAnchorRows:  {"minplus_anchor_rows", counter, ""},
	MinplusWindowReads: {"minplus_window_reads", counter, ""},
	MinplusRuns:        {"minplus_runs", counter, ""},
}

// waitQuantiles are the queue-wait percentiles every export carries
// after the descriptor metrics, as gauges in microseconds.
var waitQuantiles = [...]struct {
	desc
	q float64
}{
	{desc{"queue_wait_p50_us", gauge, ""}, 0.50},
	{desc{"queue_wait_p95_us", gauge, ""}, 0.95},
	{desc{"queue_wait_p99_us", gauge, ""}, 0.99},
}

// Counters is the per-site metric block: one atomic per ID plus the
// queue-wait histogram. Its methods are nil-safe, so a nil handle (no
// observer installed) turns every instrumentation point into one nil
// check.
type Counters struct {
	v [numIDs]atomic.Int64

	// QueueWait is the enqueue-to-dequeue latency histogram of the
	// serve pool's submit queue, recorded only while an observer is
	// installed (the wall-clock reads stay off the default path).
	QueueWait Hist
}

// Add adds d to metric id.
func (c *Counters) Add(id ID, d int64) {
	if c != nil {
		c.v[id].Add(d)
	}
}

// Store sets gauge id to v.
func (c *Counters) Store(id ID, v int64) {
	if c != nil {
		c.v[id].Store(v)
	}
}

// StoreMax raises gauge id to v if v exceeds its current value — the
// idiom for high-water gauges (queue depth and write-shard peaks).
func (c *Counters) StoreMax(id ID, v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v[id].Load()
		if v <= cur || c.v[id].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value of metric id (0 on a nil block).
func (c *Counters) Load(id ID) int64 {
	if c == nil {
		return 0
	}
	return c.v[id].Load()
}

// scalars calls f for every scalar metric of c in export order: the
// descriptor table, then the queue-wait quantiles.
func (c *Counters) scalars(f func(d *desc, v int64)) {
	for id := range descs {
		f(&descs[id], c.v[id].Load())
	}
	for i := range waitQuantiles {
		w := &waitQuantiles[i]
		f(&w.desc, c.QueueWait.Quantile(w.q).Microseconds())
	}
}

// MarshalJSON renders the block as one JSON object: every scalar metric
// by name (zeros included), then "queue_wait_us", the queue-wait
// histogram buckets as HistBuckets describes them.
func (c *Counters) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	c.scalars(func(d *desc, v int64) {
		b = strconv.AppendInt(append(strconv.AppendQuote(b, d.name), ':'), v, 10)
		b = append(b, ',')
	})
	b = append(b, `"queue_wait_us":[`...)
	for i, n := range c.QueueWait.Snapshot() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, "]}"...), nil
}

// WordBytes is the simulated size of one exchanged value: every machine
// word in the model is charged as a 64-bit quantity.
const WordBytes = 8

// Observer owns the per-site counter registry and the optional tracer of
// one instrumented run. The zero value is ready to use; NewObserver
// exists for readability. Safe for concurrent use; Site and Tracer never
// lock.
type Observer struct {
	sites  sync.Map // site name -> *Counters
	tracer atomic.Pointer[Tracer]
}

// NewObserver returns an empty observer with tracing off.
func NewObserver() *Observer { return &Observer{} }

// Site returns the counter block for the named site, creating it on
// first use. Returns nil on a nil observer, so machines can write
// `m.obs = o.Site(model)` unconditionally. A hit is one lock-free map
// load.
func (o *Observer) Site(name string) *Counters {
	if o == nil {
		return nil
	}
	if c, ok := o.sites.Load(name); ok {
		return c.(*Counters)
	}
	c, _ := o.sites.LoadOrStore(name, new(Counters))
	return c.(*Counters)
}

// EnableTracing attaches a span tracer holding at most cap spans
// (DefaultTraceCap when cap <= 0) and returns it. Idempotent: a second
// call returns the existing tracer.
func (o *Observer) EnableTracing(cap int) *Tracer {
	o.tracer.CompareAndSwap(nil, newTracer(cap))
	return o.tracer.Load()
}

// Tracer returns the attached tracer, or nil when tracing is off. Nil
// receivers return nil, matching Site.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer.Load()
}

// sorted returns the site names in order with their counter blocks.
func (o *Observer) sorted() ([]string, []*Counters) {
	var names []string
	o.sites.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	blocks := make([]*Counters, len(names))
	for i, name := range names {
		blocks[i] = o.Site(name)
	}
	return names, blocks
}

// siteMap returns the counter blocks keyed by site name, the JSON and
// expvar document.
func (o *Observer) siteMap() map[string]*Counters {
	names, blocks := o.sorted()
	m := make(map[string]*Counters, len(names))
	for i, name := range names {
		m[name] = blocks[i]
	}
	return m
}

// WriteJSON writes the per-site metrics as an indented JSON document:
//
//	{"sites": {"pram": {"supersteps": ..., ...}, ...}}
func (o *Observer) WriteJSON(w io.Writer) error {
	doc := struct {
		Sites map[string]*Counters `json:"sites"`
	}{Sites: o.siteMap()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTable writes the per-site metrics that have a table column as an
// aligned human-readable table (the mongebench -metrics report), sites
// sorted by name, columns in descriptor order.
func (o *Observer) WriteTable(w io.Writer) error {
	heads := []string{"site"}
	var colOf [numIDs]int // metrics without a column sum into slot 0, never printed
	for id, d := range descs {
		if d.col == "" {
			continue
		}
		j := slices.Index(heads, d.col)
		if j < 0 {
			j = len(heads)
			heads = append(heads, d.col)
		}
		colOf[id] = j
	}
	rows := [][]string{heads}
	names, blocks := o.sorted()
	for i, c := range blocks {
		sums := make([]int64, len(heads))
		for id, j := range colOf {
			sums[j] += c.v[id].Load()
		}
		row := []string{names[i]}
		for _, s := range sums[1:] {
			row = append(row, strconv.FormatInt(s, 10))
		}
		rows = append(rows, row)
	}
	width := make([]int, len(heads))
	for _, row := range rows {
		for j, cell := range row {
			width[j] = max(width[j], len(cell))
		}
	}
	bw := bufio.NewWriter(w)
	for _, row := range rows {
		fmt.Fprintf(bw, "%-*s", width[0], row[0])
		for j := 1; j < len(row); j++ {
			fmt.Fprintf(bw, " %*s", width[j], row[j])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WritePrometheus writes the per-site metrics in Prometheus text
// exposition format (version 0.0.4): one # TYPE header per metric with
// its declared type, then one monge_<name>{site="<site>"} <value> sample
// per site, sites sorted, zeros included, values printed exactly. A nil
// observer writes nothing.
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	names, blocks := o.sorted()
	vals := make([][]int64, len(blocks))
	var ds []*desc
	for i, c := range blocks {
		c.scalars(func(d *desc, v int64) {
			if i == 0 {
				ds = append(ds, d)
			}
			vals[i] = append(vals[i], v)
		})
	}
	bw := bufio.NewWriter(w)
	for j, d := range ds {
		fmt.Fprintf(bw, "# TYPE monge_%s %s\n", d.name, d.kind)
		for i, site := range names {
			fmt.Fprintf(bw, "monge_%s{site=%q} %d\n", d.name, site, vals[i][j])
		}
	}
	return bw.Flush()
}

// global is the process-wide observer newly created machines attach by
// default; nil (the default) keeps instrumentation fully off.
var global atomic.Pointer[Observer]

// SetGlobal installs the process-wide observer (nil detaches). Existing
// machines keep the handles they already captured; only machines created
// afterwards attach o.
func SetGlobal(o *Observer) { global.Store(o) }

// Global returns the process-wide observer, or nil when observability is
// off. The nil fast path is one atomic pointer load.
func Global() *Observer { return global.Load() }

var expvarOnce sync.Once

// PublishExpvar publishes the process-wide observer's per-site metrics
// as the expvar variable "monge_obs" (visible on /debug/vars when an
// HTTP server runs), in the WriteJSON site schema. Idempotent; the
// published function re-reads Global() on every access, so it tracks
// observer swaps. Returns the variable name.
func PublishExpvar() string {
	expvarOnce.Do(func() {
		expvar.Publish("monge_obs", expvar.Func(func() any {
			o := Global()
			if o == nil {
				return map[string]*Counters{}
			}
			return o.siteMap()
		}))
	})
	return "monge_obs"
}
