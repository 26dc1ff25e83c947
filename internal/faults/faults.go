// Package faults is the deterministic fault-injection runtime of the
// simulated machines. It decides, from a seed and a rate, which units of
// work misbehave: worker-pool chunks that stall (transient processor
// faults), hypercube / CCC / shuffle-exchange link messages that are
// dropped or garbled in flight, and whole supersteps that time out. The
// runtime detects every injected fault and recovers — stalled chunks are
// re-dispatched by the pool, faulty link deliveries are retransmitted with
// exponential backoff, timed-out supersteps are re-executed — so under any
// schedule the algorithms still return index-exact results; only the
// charged time / communication counters inflate.
//
// # Determinism contract
//
// Every decision is a pure hash of (seed, fault site, superstep id, unit
// id, attempt number) — never of wall-clock time, goroutine identity, or
// invocation order. Two runs with the same seed, rate, and workload see
// the identical fault schedule even with different GOMAXPROCS or pool
// worker counts, which keeps the repository's worker-count determinism
// tests valid under fault injection (the fault-matrix CI job relies on
// this). Decisions for successive attempts at one unit are independent
// hashes, so a unit stalls k times with probability rate^k and every
// retry loop terminates (attempts are additionally capped at
// MaxAttempts).
//
// # Process-wide injector
//
// Global returns an injector configured from the FAULT_RATE and
// FAULT_SEED environment variables (nil when unset), which newly created
// machines attach by default; this is how the CI fault matrix runs the
// entire test suite under injection without touching any test.
package faults

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxAttempts caps the retries any single unit of work can suffer, so a
// misconfigured rate close to 1 cannot stall the simulation forever.
const MaxAttempts = 64

// MaxRate is the largest accepted injection rate; New clamps above it.
// Rates beyond this make the retry-charged counters meaningless long
// before they endanger termination.
const MaxRate = 0.9

// Fault sites: independent hash domains so a step's chunk-stall schedule
// never correlates with its link or timeout schedule.
const (
	siteStall uint64 = 0x5354414c4c << 8 // "STALL"
	siteDrop  uint64 = 0x44524f50 << 8   // "DROP"
	siteGarb  uint64 = 0x47415242 << 8   // "GARB"
	siteTime  uint64 = 0x54494d45 << 8   // "TIME"

	// Serving-boundary fault sites (internal/serve and internal/admit):
	// admission-queue stalls, query results lost between worker and
	// caller ("ticket drops", recovered by resubmission — queries are
	// pure), and shards that serve one query pathologically slowly.
	siteQStall uint64 = 0x515354414c4c << 8 // "QSTALL"
	siteTDrop  uint64 = 0x5444524f50 << 8   // "TDROP"
	siteSlow   uint64 = 0x534c4f57 << 8     // "SLOW"

	// Preprocessing fault site (internal/mindex): build units that
	// transiently fail and are recomputed.
	siteBuild uint64 = 0x4255494c44 << 8 // "BUILD"
)

// Stats counts the faults an injector has delivered and the recoveries
// the runtime performed. All fields are updated atomically; read them
// through Injector.Stats.
type Stats struct {
	// Stalls is the number of chunk executions that stalled and were
	// re-dispatched by the worker pool.
	Stalls int64
	// Drops is the number of link messages lost in flight and
	// retransmitted.
	Drops int64
	// Garbles is the number of link messages corrupted in flight, caught
	// by the (simulated) checksum, and retransmitted.
	Garbles int64
	// Timeouts is the number of superstep executions that timed out and
	// were re-run.
	Timeouts int64
	// QueueStalls is the number of admission-queue enqueues the serving
	// boundary delayed (injected submit-path stalls).
	QueueStalls int64
	// TicketDrops is the number of served results lost between worker
	// and caller and recovered by resubmission.
	TicketDrops int64
	// SlowShards is the number of queries served with injected extra
	// shard latency.
	SlowShards int64
	// BuildFaults is the number of index-preprocessing units that
	// transiently failed and were recomputed.
	BuildFaults int64
}

// Injector decides and counts injected faults. A nil *Injector is valid
// and injects nothing, at the cost of one nil check per query; machines
// treat "no injector" and "rate 0" identically.
type Injector struct {
	seed  uint64
	rate  float64
	bar   uint64 // decision threshold: hash < bar ==> fault
	stats Stats
}

// New returns an injector with the given seed and per-unit fault rate.
// The rate is clamped to [0, MaxRate]; rate 0 returns a valid injector
// that never fires (useful for uniform wiring).
func New(seed int64, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > MaxRate {
		rate = MaxRate
	}
	var bar uint64
	if rate > 0 {
		bar = uint64(rate * float64(1<<63) * 2)
	}
	return &Injector{seed: uint64(seed), rate: rate, bar: bar}
}

// Rate returns the clamped per-unit fault rate (0 for a nil injector).
func (in *Injector) Rate() float64 {
	if in == nil {
		return 0
	}
	return in.rate
}

// Enabled reports whether the injector can fire at all.
func (in *Injector) Enabled() bool { return in != nil && in.bar > 0 }

// Stats returns a snapshot of the delivered-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Stalls:      atomic.LoadInt64(&in.stats.Stalls),
		Drops:       atomic.LoadInt64(&in.stats.Drops),
		Garbles:     atomic.LoadInt64(&in.stats.Garbles),
		Timeouts:    atomic.LoadInt64(&in.stats.Timeouts),
		QueueStalls: atomic.LoadInt64(&in.stats.QueueStalls),
		TicketDrops: atomic.LoadInt64(&in.stats.TicketDrops),
		SlowShards:  atomic.LoadInt64(&in.stats.SlowShards),
		BuildFaults: atomic.LoadInt64(&in.stats.BuildFaults),
	}
}

// String describes the injector configuration.
func (in *Injector) String() string {
	if !in.Enabled() {
		return "faults: off"
	}
	return fmt.Sprintf("faults: rate=%g seed=%d", in.rate, int64(in.seed))
}

// mix is splitmix64 over the xor-folded inputs: a well-dispersed 64-bit
// hash that makes per-attempt decisions independent.
func mix(a, b, c, d uint64) uint64 {
	z := a ^ b*0x9e3779b97f4a7c15 ^ c*0xbf58476d1ce4e5b9 ^ d*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (in *Injector) fires(site, step, unit, attempt uint64) bool {
	return mix(in.seed^site, step, unit, attempt) < in.bar
}

// StallFn returns the chunk-stall predicate for one superstep, suitable
// for exec.Loop.Stall: it reports whether the given chunk's given attempt
// stalls, counting each stall. Returns nil for a disabled injector so the
// pool takes its fast path.
func (in *Injector) StallFn(step int64) func(chunk, attempt int) bool {
	if !in.Enabled() {
		return nil
	}
	return func(chunk, attempt int) bool {
		if attempt >= MaxAttempts || !in.fires(siteStall, uint64(step), uint64(chunk), uint64(attempt)) {
			return false
		}
		atomic.AddInt64(&in.stats.Stalls, 1)
		return true
	}
}

// LinkFaults returns how many deliveries of superstep step's message to
// processor p fail before the clean one: drops (message lost, receiver
// times out and requests retransmission) and garbles (message corrupted,
// checksum fails, retransmission requested). The clean delivery is not
// counted; a zero/zero return is the overwhelmingly common fault-free
// case.
func (in *Injector) LinkFaults(step int64, p int) (drops, garbles int) {
	if !in.Enabled() {
		return 0, 0
	}
	for a := 0; a < MaxAttempts; a++ {
		if in.fires(siteDrop, uint64(step), uint64(p), uint64(a)) {
			drops++
			continue
		}
		if in.fires(siteGarb, uint64(step), uint64(p), uint64(a)) {
			garbles++
			continue
		}
		break
	}
	if drops > 0 {
		atomic.AddInt64(&in.stats.Drops, int64(drops))
	}
	if garbles > 0 {
		atomic.AddInt64(&in.stats.Garbles, int64(garbles))
	}
	return drops, garbles
}

// StepTimeouts returns how many executions of superstep step time out
// before the one that completes, counting them. The machines charge a
// full re-execution per timeout; the effect-free failed attempts (writes
// are buffered, exchanges are pure) make the re-run invisible to outputs.
func (in *Injector) StepTimeouts(step int64) int {
	if !in.Enabled() {
		return 0
	}
	t := 0
	for t < MaxAttempts && in.fires(siteTime, uint64(step), 0, uint64(t)) {
		t++
	}
	if t > 0 {
		atomic.AddInt64(&in.stats.Timeouts, int64(t))
	}
	return t
}

// BackoffTime returns the total charged wait of the exponential
// retry-with-backoff policy after `retries` failed deliveries: the r-th
// retransmission waits 2^(r-1) time units, capped per retry at 2^10, so
// the total is 2^retries - 1 for small counts. Zero retries charge
// nothing.
func BackoffTime(retries int) int64 {
	var total, wait int64 = 0, 1
	for r := 0; r < retries; r++ {
		total += wait
		if wait < 1<<10 {
			wait <<= 1
		}
	}
	return total
}

// Serving-boundary chaos. These decisions follow the same determinism
// contract as the machine-level sites — pure hashes of (seed, site,
// unit, attempt), never of time or goroutine identity — so a chaos run
// of the serving layer sees the identical fault schedule at any worker
// count. The injected latencies are fixed small constants: large enough
// to reorder queue service and trip hedging thresholds in tests, small
// enough that a chaos suite at rate 0.05 stays fast.
const (
	// QueueStallLatency is the submit-path delay of one injected queue
	// stall (the serving analogue of a stalled chunk).
	QueueStallLatency = 200 * time.Microsecond
	// SlowShardLatency is the extra service latency of one injected
	// slow-shard fault.
	SlowShardLatency = 2 * time.Millisecond
)

// QueueStall returns the injected delay before enqueueing admission
// unit `unit` (0 in the overwhelmingly common clean case), counting
// delivered stalls.
func (in *Injector) QueueStall(unit int64) time.Duration {
	if !in.Enabled() || !in.fires(siteQStall, 0, uint64(unit), 0) {
		return 0
	}
	atomic.AddInt64(&in.stats.QueueStalls, 1)
	return QueueStallLatency
}

// TicketDrop reports whether the result of admission unit `unit`'s
// given delivery attempt is lost between worker and caller (the caller
// recovers by resubmitting — queries are pure, so the recomputed answer
// is identical). Decisions for successive attempts are independent
// hashes and attempts at MaxAttempts or beyond never drop, so recovery
// always terminates.
func (in *Injector) TicketDrop(unit int64, attempt int) bool {
	if !in.Enabled() || attempt >= MaxAttempts || !in.fires(siteTDrop, 0, uint64(unit), uint64(attempt)) {
		return false
	}
	atomic.AddInt64(&in.stats.TicketDrops, 1)
	return true
}

// SlowShard returns the extra service latency injected into shard
// `shard`'s service of its seq-th query (0 in the clean case), counting
// delivered slow-shard faults.
func (in *Injector) SlowShard(shard int, seq int64) time.Duration {
	if !in.Enabled() || !in.fires(siteSlow, uint64(shard), uint64(seq), 0) {
		return 0
	}
	atomic.AddInt64(&in.stats.SlowShards, 1)
	return SlowShardLatency
}

// BuildFault reports whether the given attempt at index-preprocessing
// unit `unit` transiently fails (the builder recovers by recomputing
// the unit — build units are pure, so the recomputed state is
// identical). Decisions for successive attempts are independent hashes
// and attempts at MaxAttempts or beyond never fail, so every build
// terminates.
func (in *Injector) BuildFault(unit int64, attempt int) bool {
	if !in.Enabled() || attempt >= MaxAttempts || !in.fires(siteBuild, 0, uint64(unit), uint64(attempt)) {
		return false
	}
	atomic.AddInt64(&in.stats.BuildFaults, 1)
	return true
}

var (
	globalOnce sync.Once
	globalInj  *Injector
)

// SetGlobal installs in as the process-wide injector that newly created
// machines attach (nil turns injection off for machines created later).
// It overrides the environment configuration; existing machines keep the
// injector they already attached. Command-line front ends (mongebench
// -faults) use this; tests should prefer per-machine SetFaults.
func SetGlobal(in *Injector) {
	globalOnce.Do(func() {})
	globalInj = in
}

// Global returns the process-wide injector configured from the
// environment, or nil when fault injection is off. FAULT_RATE (a float in
// (0, MaxRate]) enables it; FAULT_SEED (default 1) seeds it. Parsed once;
// newly created machines attach it by default, as they attach
// obs.Global.
func Global() *Injector {
	globalOnce.Do(func() {
		v := os.Getenv("FAULT_RATE")
		if v == "" {
			return
		}
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 {
			return
		}
		seed := int64(1)
		if s := os.Getenv("FAULT_SEED"); s != "" {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				seed = n
			}
		}
		globalInj = New(seed, rate)
	})
	return globalInj
}
