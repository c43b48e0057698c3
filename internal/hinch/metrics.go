package hinch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xspcl/internal/spacecake"
)

// ClassStats aggregates per-component-class counters from a run.
type ClassStats struct {
	Jobs      int64 `json:"jobs"`       // jobs executed
	Ops       int64 `json:"ops"`        // arithmetic operations charged (sim)
	MemCycles int64 `json:"mem_cycles"` // memory latency cycles charged (sim)
	Faults    int64 `json:"faults"`     // contained component failures (failed attempts)
	Retries   int64 `json:"retries"`    // re-attempts made under a retry policy
}

func (c *ClassStats) add(o ClassStats) {
	c.Jobs += o.Jobs
	c.Ops += o.Ops
	c.MemCycles += o.MemCycles
	c.Faults += o.Faults
	c.Retries += o.Retries
}

// SchedStats aggregates the real backend's work-stealing scheduler
// actions, merged from the per-worker shards.
type SchedStats struct {
	// StealAttempts counts scans for remote work (a worker's own deque
	// came up empty).
	StealAttempts int64 `json:"steal_attempts"`
	// Steals counts jobs actually taken from another worker's deque.
	Steals int64 `json:"steals"`
	// GlobalPops counts jobs taken from the global overflow queue.
	GlobalPops int64 `json:"global_pops"`
	// Parks counts workers blocking because no work was runnable.
	Parks int64 `json:"parks"`
	// Wakes counts idle workers unparked by a job push.
	Wakes int64 `json:"wakes"`
	// Batches counts multi-job batch publishes: runs of released jobs
	// made runnable with one deque interaction (batched dispatch).
	Batches int64 `json:"batches"`
	// Chained counts jobs executed straight off a worker's chain slot —
	// same-task consecutive iterations run back-to-back without ever
	// touching a queue.
	Chained int64 `json:"chained"`
}

// Outcome classifies how a run ended. A run that returns an error has
// no meaningful outcome; a run that returns a Report is either
// completed (ran to its iteration limit or EOS) or cancelled (the
// RunContext context fired and the pipeline drained early — the Report
// then covers the iterations processed before the cut).
type Outcome string

// Run outcomes.
const (
	OutcomeCompleted Outcome = "completed"
	OutcomeCancelled Outcome = "cancelled"
)

// Report summarises one App.Run.
type Report struct {
	// Outcome says whether the run completed or was cancelled.
	Outcome Outcome
	// Iterations actually processed (excluding cancelled ones after EOS).
	Iterations int
	// Cycles is the virtual completion time on the sim backend.
	Cycles int64
	// Wall is the elapsed host time (meaningful on the real backend).
	Wall time.Duration
	// Jobs is the total number of jobs executed.
	Jobs int64
	// Cores is the number of cores/workers used.
	Cores int
	// Cache holds the memory-system counters (sim backend).
	Cache spacecake.Stats
	// PerClass breaks work down by component class; manager entry/exit
	// jobs appear under the pseudo-class "manager".
	PerClass map[string]ClassStats
	// CoreBusy is the busy time per core in cycles (sim backend).
	CoreBusy []int64
	// Reconfigs counts completed reconfigurations.
	Reconfigs int
	// ReconfigStall is the virtual time spent fully quiescent waiting
	// for reconfigurations (sim backend).
	ReconfigStall int64
	// EventsEmitted counts events pushed to queues during the run.
	EventsEmitted int64
	// Faults counts contained component failures (failed attempts under
	// a non-fail policy or the fault injector); per-task breakdown in
	// PerClass.
	Faults int64
	// Retries counts component re-attempts made under retry policies.
	Retries int64
	// Degradations counts synthetic fault events emitted to managers
	// (policy exhaustion, skipped iterations, watchdog overruns).
	Degradations int64
	// Sched holds the work-stealing scheduler counters (real backend).
	Sched SchedStats
	// Tune summarises autotuner activity (Config.Autotune).
	Tune TuneStats
	// TuneLog is the autotuner's full decision trace, in decision
	// order. On the sim backend it is deterministic for a fixed program
	// and config. Excluded from the JSON report.
	TuneLog []TuneDecision
	// Stages holds per-stage service-time distributions
	// (Config.Telemetry): virtual cycles on the sim backend (every job
	// recorded, deterministic), sampled wall ns on real.
	Stages []StageLat
	// IterLat is the end-to-end iteration latency distribution, source
	// launch to sink retire (Config.Telemetry); nil without telemetry.
	IterLat *StageLat
	// Stalls counts stalled-progress watchdog trips (Config.Telemetry).
	Stalls int64
}

// StageLat is one stage's latency distribution summary, derived from
// the telemetry histograms. Quantiles are deterministic bucket upper
// bounds (see HistSnap.Quantile). Units follow the backend's telemetry
// clock: virtual cycles on sim, wall nanoseconds on real.
type StageLat struct {
	Name string `json:"name"`
	Jobs int64  `json:"jobs"` // exact on sim; sampled estimate on real
	P50  int64  `json:"p50"`
	P95  int64  `json:"p95"`
	P99  int64  `json:"p99"`
	Max  int64  `json:"max"`
}

// stageLat folds a merged histogram into a summary row.
func stageLat(name string, jobs int64, h HistSnap) StageLat {
	return StageLat{
		Name: name, Jobs: jobs,
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Max: h.Max,
	}
}

// CyclesPerIteration returns the average virtual cost of one iteration.
func (r *Report) CyclesPerIteration() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Iterations)
}

// Utilisation returns mean core-busy fraction on the sim backend.
func (r *Report) Utilisation() float64 {
	if r.Cycles == 0 || len(r.CoreBusy) == 0 {
		return 0
	}
	var busy int64
	for _, b := range r.CoreBusy {
		busy += b
	}
	return float64(busy) / (float64(r.Cycles) * float64(len(r.CoreBusy)))
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d jobs=%d cores=%d", r.Iterations, r.Jobs, r.Cores)
	if r.Outcome == OutcomeCancelled {
		fmt.Fprintf(&b, " outcome=%s", r.Outcome)
	}
	if r.Cycles > 0 {
		fmt.Fprintf(&b, " cycles=%d (%.0f/iter, util %.0f%%)", r.Cycles, r.CyclesPerIteration(), 100*r.Utilisation())
	}
	if r.Wall > 0 {
		fmt.Fprintf(&b, " wall=%v", r.Wall)
	}
	if r.Reconfigs > 0 {
		fmt.Fprintf(&b, " reconfigs=%d stall=%d", r.Reconfigs, r.ReconfigStall)
	}
	if r.EventsEmitted > 0 {
		fmt.Fprintf(&b, " events=%d", r.EventsEmitted)
	}
	if r.Faults > 0 || r.Retries > 0 || r.Degradations > 0 {
		fmt.Fprintf(&b, " faults=%d retries=%d degradations=%d", r.Faults, r.Retries, r.Degradations)
	}
	if r.Stalls > 0 {
		fmt.Fprintf(&b, " stalls=%d", r.Stalls)
	}
	if r.Sched != (SchedStats{}) {
		fmt.Fprintf(&b, " steals=%d/%d global=%d parks=%d wakes=%d",
			r.Sched.Steals, r.Sched.StealAttempts, r.Sched.GlobalPops, r.Sched.Parks, r.Sched.Wakes)
	}
	if r.Tune.Epochs > 0 {
		fmt.Fprintf(&b, " tune: epochs=%d widen=%d shrink=%d depth=+%d/-%d",
			r.Tune.Epochs, r.Tune.Widen, r.Tune.Shrink, r.Tune.DepthRaises, r.Tune.DepthDrops)
	}
	if r.Cache != (spacecake.Stats{}) {
		fmt.Fprintf(&b, " L1miss=%.1f%% L2miss=%d", 100*r.Cache.L1MissRate(), r.Cache.L2Misses)
	}
	classes := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := r.PerClass[c]
		fmt.Fprintf(&b, "\n  %-14s jobs=%-6d ops=%-12d mem=%d", c, s.Jobs, s.Ops, s.MemCycles)
	}
	if r.IterLat != nil {
		fmt.Fprintf(&b, "\n  lat %-14s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d",
			r.IterLat.Name, r.IterLat.Jobs, r.IterLat.P50, r.IterLat.P95, r.IterLat.P99, r.IterLat.Max)
	}
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "\n  lat %-14s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d",
			s.Name, s.Jobs, s.P50, s.P95, s.P99, s.Max)
	}
	return b.String()
}

// MarshalJSON renders the report with stable snake_case keys plus the
// derived figures (cycles per iteration, utilisation) the paper's
// tables quote, so `-report json` output feeds scripts directly.
func (r *Report) MarshalJSON() ([]byte, error) {
	type cacheJSON struct {
		L1Hits        int64 `json:"l1_hits"`
		L1Misses      int64 `json:"l1_misses"`
		L2Hits        int64 `json:"l2_hits"`
		L2Misses      int64 `json:"l2_misses"`
		MemCycles     int64 `json:"mem_cycles"`
		StreamedLines int64 `json:"streamed_lines"`
	}
	type reportJSON struct {
		Outcome            string                `json:"outcome"`
		Iterations         int                   `json:"iterations"`
		Cycles             int64                 `json:"cycles"`
		CyclesPerIteration float64               `json:"cycles_per_iteration"`
		Utilisation        float64               `json:"utilisation"`
		WallNS             int64                 `json:"wall_ns"`
		Jobs               int64                 `json:"jobs"`
		Cores              int                   `json:"cores"`
		Reconfigs          int                   `json:"reconfigs"`
		ReconfigStall      int64                 `json:"reconfig_stall"`
		EventsEmitted      int64                 `json:"events_emitted"`
		Faults             int64                 `json:"faults"`
		Retries            int64                 `json:"retries"`
		Degradations       int64                 `json:"degradations"`
		Sched              SchedStats            `json:"sched"`
		Tune               TuneStats             `json:"tune"`
		Cache              cacheJSON             `json:"cache"`
		CoreBusy           []int64               `json:"core_busy,omitempty"`
		PerClass           map[string]ClassStats `json:"per_class"`
		Stages             []StageLat            `json:"stages,omitempty"`
		IterLat            *StageLat             `json:"iter_latency,omitempty"`
		Stalls             int64                 `json:"stalls,omitempty"`
	}
	out := r.Outcome
	if out == "" {
		out = OutcomeCompleted
	}
	return json.Marshal(reportJSON{
		Outcome:            string(out),
		Iterations:         r.Iterations,
		Cycles:             r.Cycles,
		CyclesPerIteration: r.CyclesPerIteration(),
		Utilisation:        r.Utilisation(),
		WallNS:             int64(r.Wall),
		Jobs:               r.Jobs,
		Cores:              r.Cores,
		Reconfigs:          r.Reconfigs,
		ReconfigStall:      r.ReconfigStall,
		EventsEmitted:      r.EventsEmitted,
		Faults:             r.Faults,
		Retries:            r.Retries,
		Degradations:       r.Degradations,
		Sched:              r.Sched,
		Tune:               r.Tune,
		Cache: cacheJSON{
			L1Hits:        r.Cache.L1Hits,
			L1Misses:      r.Cache.L1Misses,
			L2Hits:        r.Cache.L2Hits,
			L2Misses:      r.Cache.L2Misses,
			MemCycles:     r.Cache.MemCyclesTotal,
			StreamedLines: r.Cache.StreamedLines,
		},
		CoreBusy: r.CoreBusy,
		PerClass: r.PerClass,
		Stages:   r.Stages,
		IterLat:  r.IterLat,
		Stalls:   r.Stalls,
	})
}

// counter is the run's one counting primitive: a single-writer atomic.
// Only its owning goroutine adds to it — a plain load and store, no
// read-modify-write — while any goroutine may read it mid-run, so
// App.Snapshot and the end-of-run Report read the same counters.
type counter struct{ v atomic.Int64 }

//hinch:hotpath
func (c *counter) add(n int64) { c.v.Store(c.v.Load() + n) }

func (c *counter) load() int64 { return c.v.Load() }

// taskCounters is one shard's counters for one task, folded into
// ClassStats by class. Padded to a cache line so that neighbouring
// shards' writers never share one.
type taskCounters struct {
	jobs, ops, mem, failed, retries counter
	_                               [24]byte
}

// schedCounters is one worker's shard of SchedStats.
type schedCounters struct {
	stealAttempts counter // calls to sched.steal (local deque was empty)
	steals        counter // jobs taken from another worker's deque
	globalPops    counter // jobs taken from the global overflow queue
	parks         counter // times this worker blocked waiting for work
	wakes         counter // idle workers this worker unparked
	batches       counter // multi-job batch publishes (pushBatch calls)
	chained       counter // jobs run straight off the chain, bypassing the deques
}

// schedStats folds the workers' scheduler counters. Safe mid-run; zero
// on the sim backend.
func (e *engine) schedStats() SchedStats {
	var ss SchedStats
	if e.ws == nil {
		return ss
	}
	for _, w := range e.ws.workers {
		c := &w.ctr
		ss.StealAttempts += c.stealAttempts.load()
		ss.Steals += c.steals.load()
		ss.GlobalPops += c.globalPops.load()
		ss.Parks += c.parks.load()
		ss.Wakes += c.wakes.load()
		ss.Batches += c.batches.load()
		ss.Chained += c.chained.load()
	}
	ss.Wakes += e.ws.extWakes.Load()
	return ss
}

// metrics collects the App-level event counters; atomic so the real
// backend's workers can update concurrently.
type metrics struct {
	eventsEmitted atomic.Int64
	degradations  atomic.Int64
	reconfigs     atomic.Int64 // applied reconfigurations; written under mu
}
