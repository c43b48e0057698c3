package conformance

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"xspcl/internal/analysis"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/hinch/trace"
	"xspcl/internal/xspcl"
)

// Options configures one conformance check.
type Options struct {
	// Workers lists the real-backend worker counts to run. Defaults to
	// 1, 2, 4, 8.
	Workers []int
	// Perturb enables schedule exploration on the real backend:
	// seed-derived yield/sleep points at scheduler boundaries and
	// reseeded steal-victim order. The perturbation is a pure function
	// of (seed, worker count), so a failing seed replays the same
	// schedule pressure.
	Perturb bool
	// Trace attaches the flight recorder to every run and validates
	// the recorded trace against the run's report (span nesting, span
	// count vs. executed jobs). Combined with Perturb under the race
	// detector this doubles as the recorder's concurrency check: the
	// tracer's shard discipline must hold on every explored schedule.
	Trace bool
	// Logf, when set, receives progress lines (plug in t.Logf).
	Logf func(format string, args ...any)
}

// withDefaults fills the worker list and a no-op logger.
func (o Options) withDefaults() Options {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Observation is everything externally visible about one run: how it
// ended, how many iterations were processed, the per-iteration sink
// hashes, the reconfiguration and fault-tolerance activity, and (for
// traced runs) the Perfetto export of the recorded trace.
type Observation struct {
	Backend      string
	Workers      int
	Outcome      hinch.Outcome
	Iterations   int
	Sink         []SinkRec
	Reconfigs    int
	Requests     []int // delivered request count per creconf instance
	Faults       int64
	Retries      int64
	Degradations int64
	Trace        []byte // Perfetto export; nil unless traced
}

// canon renders the observation parts that must be identical across
// deterministic runs (used to compare sim-vs-sim, including the run on
// the emit→parse round-tripped program).
func (o *Observation) canon() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iters=%d reconfigs=%d faults=%d retries=%d degradations=%d reqs=%v\n",
		o.Iterations, o.Reconfigs, o.Faults, o.Retries, o.Degradations, o.Requests)
	for _, r := range o.Sink {
		fmt.Fprintf(&b, "%d:%016x\n", r.Iter, r.H)
	}
	return b.String()
}

// target is what a run needs to know about one generated program: the
// program itself, the pipeline shape its family runs it at, and where
// to read the results.
type target struct {
	prog      *graph.Program
	depth     int // Config.PipelineDepth
	streamCap int // Config.StreamCapacity
	iters     int // Run argument
	sink      string
	reconfs   []string // creconf instances whose requests are observed
}

func (g *Gen) target(prog *graph.Program) target {
	return target{prog: prog, depth: g.Depth, streamCap: g.StreamCap, iters: g.Iters, sink: g.SinkName, reconfs: g.Reconfs}
}

func (g *FaultyGen) target(prog *graph.Program) target {
	return target{prog: prog, depth: g.Depth, streamCap: 2, iters: g.Iters, sink: "snk"}
}

// runOpts are the per-run switches the families use.
type runOpts struct {
	hooks  hinch.TestHooks     // schedule perturbation; nil = none
	faults hinch.FaultInjector // fault injection (or an in-band cancel); nil = none
	ctx    context.Context     // run under RunContext; nil = plain Run
	// traced attaches the flight recorder; the trace is validated
	// against the report and exported into Observation.Trace.
	traced bool
	// tune runs the autotuner (resizing replica widths and stream
	// depths mid-run); the observation must be unaffected.
	tune bool
	// observe hammers App.Snapshot from a second goroutine for the
	// whole run; the observation must be unaffected and no lock-free
	// read may trip the race detector.
	observe bool
}

// roundTrip emits prog as XML and parses it back; the reparsed program
// must print identically to the built one.
func roundTrip(prog *graph.Program) (*graph.Program, error) {
	xml, err := xspcl.EmitXML(prog)
	if err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	prog2, err := xspcl.Load(xml)
	if err != nil {
		return nil, fmt.Errorf("reparse emitted XML: %w", err)
	}
	if a, b := prog.String(), prog2.String(); a != b {
		return nil, fmt.Errorf("emit/parse round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", a, b)
	}
	return prog2, nil
}

// perturb implements hinch.TestHooks: a seed-derived schedule
// perturbation. At every instrumented boundary it draws from a counter
// hash and occasionally sleeps a few microseconds (stretching windows
// between lock-free probes and their uses) or yields the goroutine
// (inviting a concurrent worker into the window). Steal-victim
// sequences are reseeded per worker so exploration visits victim
// orders the default seeding never produces.
type perturb struct {
	seed uint64
	ctr  atomic.Uint64
}

func (p *perturb) Yield(pt hinch.YieldPoint) {
	c := p.ctr.Add(1)
	x := mix(p.seed, c, uint64(pt))
	if pt == hinch.YieldAcquire {
		// Buffer acquisition fires once per iteration — rare but
		// high-leverage: any job of the same iteration dispatched
		// while ensureBuffers is parked here races the publication of
		// the iteration's buffer set. Stretch it nearly every time.
		if x%4 != 0 {
			time.Sleep(time.Duration(1+x%20) * time.Microsecond)
		} else {
			runtime.Gosched()
		}
		return
	}
	switch {
	case x%127 == 0:
		time.Sleep(time.Duration(1+x%3) * time.Microsecond)
	case x%11 == 0:
		runtime.Gosched()
	}
}

func (p *perturb) StealSeed(worker int) uint64 {
	return mix(p.seed, uint64(worker)) | 1 // xorshift state must be non-zero
}

// Check generates the program for seed and runs the full differential
// battery: emit→parse round-trip, sim determinism (original vs.
// round-tripped program), sim vs. oracle, and real backend at each
// worker count vs. oracle. Any divergence is returned as an error
// prefixed with the seed, so CONFORMANCE_SEED=<n> replays it exactly.
func Check(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	g, err := Generate(seed)
	if err != nil {
		return err
	}
	opt.Logf("seed %d: iters=%d frames=%d depth=%d cap=%d cells=%d opts=%d trigs=%d multi=%v",
		seed, g.Iters, g.Frames, g.Depth, g.StreamCap, g.NCells, len(g.Options), len(g.Triggers), g.MultiSource)

	// Static-analyzer precheck: the generator only builds live programs,
	// so a deadlock verdict here is an analyzer false positive (an
	// unsound "deadlocked" call). The runs below then cross-validate the
	// other direction: a program the analyzer declared deadlock-free
	// must run to completion on every backend and worker count.
	rep, err := analysis.Analyze(g.Prog, analysis.Options{Catalog: Registry()})
	if err != nil {
		return fmt.Errorf("seed %d: analyzer: %w", seed, err)
	}
	if errs := rep.ErrorsByPass(analysis.PassDeadlock); len(errs) > 0 {
		return fmt.Errorf("seed %d: analyzer declared a generator-built (live-by-construction) program deadlocked: %s", seed, errs[0].Message)
	}
	// Same for formats: generated streams carry no declared formats and
	// every conformance class's signature is satisfiable over free
	// terms, so any formats verdict is a solver false positive.
	if errs := rep.ErrorsByPass(analysis.PassFormats); len(errs) > 0 {
		return fmt.Errorf("seed %d: formats pass flagged a format-free generated program: %s", seed, errs[0].Message)
	}
	return battery{
		label:  fmt.Sprintf("seed %d", seed),
		seed:   seed,
		target: g.target,
		prog:   g.Prog,
		verify: func(o *Observation) error { return verify(g, o) },
	}.run(opt)
}

// battery is the differential check every complete-run family shares:
// the emit→parse round-trip; sim on the built and on the round-tripped
// program, whose canons must agree (the sim backend is deterministic,
// so the runs agree on every observable, including event and
// reconfiguration order) and which the oracle must accept; then the
// real backend at every worker count against the oracle, under
// seed-derived schedule perturbation when Options.Perturb is set.
type battery struct {
	label  string                      // error prefix, e.g. "seed 7"
	seed   uint64                      // perturbation seed
	salt   []uint64                    // mixed into the hook seed after the worker count
	target func(*graph.Program) target // the family's run shape for a program
	prog   *graph.Program              // the built program
	tune   bool                        // run the autotuner
	faults hinch.FaultInjector         // the family's injection schedule; nil = none
	verify func(o *Observation) error  // the family's oracle
}

func (b battery) run(opt Options) error {
	prog2, err := roundTrip(b.prog)
	if err != nil {
		return fmt.Errorf("%s: %w", b.label, err)
	}
	o := runOpts{faults: b.faults, traced: opt.Trace, tune: b.tune}
	sim, err := run(b.target(b.prog), hinch.BackendSim, 3, o)
	if err != nil {
		return fmt.Errorf("%s: sim: %w", b.label, err)
	}
	sim2, err := run(b.target(prog2), hinch.BackendSim, 3, o)
	if err != nil {
		return fmt.Errorf("%s: sim(round-tripped): %w", b.label, err)
	}
	if a, c := sim.canon(), sim2.canon(); a != c {
		return fmt.Errorf("%s: sim runs diverged between built and round-tripped program:\n--- built ---\n%s--- round-tripped ---\n%s", b.label, a, c)
	}
	if err := b.verify(sim); err != nil {
		return fmt.Errorf("%s: sim: %w", b.label, err)
	}
	for _, w := range opt.Workers {
		o.hooks = nil
		if opt.Perturb {
			o.hooks = &perturb{seed: mix(append([]uint64{b.seed, uint64(w)}, b.salt...)...)}
		}
		real, err := run(b.target(b.prog), hinch.BackendReal, w, o)
		if err != nil {
			return fmt.Errorf("%s: real/%dw: %w", b.label, w, err)
		}
		if err := b.verify(real); err != nil {
			return fmt.Errorf("%s: real/%dw: %w", b.label, w, err)
		}
		opt.Logf("%s: real/%dw ok (%d sink records, reconfigs=%d faults=%d retries=%d degradations=%d)",
			b.label, w, len(real.Sink), real.Reconfigs, real.Faults, real.Retries, real.Degradations)
	}
	return nil
}

// run executes one target once on the given backend and collects the
// observation. Every run gets a fresh registry: conformance component
// instances hold per-run state.
func run(t target, backend hinch.Backend, cores int, o runOpts) (obs *Observation, err error) {
	defer func() {
		// The runtime surfaces dependency violations as panics (e.g.
		// a port access by an iteration with no buffer set, or a
		// nil-payload type assertion in a component that ran before its
		// producer), and an escaped panic means fault containment
		// failed. Convert them into check failures so the harness
		// reports the seed instead of crashing the fuzzer.
		if r := recover(); r != nil {
			obs, err = nil, fmt.Errorf("runtime panic: %v", r)
		}
	}()
	cfg := hinch.Config{
		Backend:        backend,
		Cores:          cores,
		PipelineDepth:  t.depth,
		StreamCapacity: t.streamCap,
		Hooks:          o.hooks,
		Faults:         o.faults,
		Autotune:       o.tune,
		Telemetry:      o.observe,
	}
	if o.tune && backend == hinch.BackendReal {
		// Tick fast so even short perturbed runs see live resizes.
		cfg.TuneEpochWall = 200 * time.Microsecond
	}
	var rec *trace.Recorder
	if o.traced {
		rec = trace.New(0)
		cfg.Tracer = rec // conditional: a typed-nil Tracer would defeat the nil check
	}
	app, err := hinch.NewApp(t.prog, Registry(), cfg)
	if err != nil {
		return nil, err
	}
	var snapStop chan struct{}
	var snapDone chan int
	if o.observe {
		snapStop = make(chan struct{})
		snapDone = make(chan int, 1)
		go func() {
			n := 0
			for {
				select {
				case <-snapStop:
					snapDone <- n
					return
				default:
				}
				s := app.Snapshot()
				if s.Inflight < 0 || s.Retired < 0 {
					panic(fmt.Sprintf("snapshot invariant: %+v", s))
				}
				n++
			}
		}()
	}
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rep, err := app.RunContext(ctx, t.iters)
	if o.observe {
		close(snapStop)
		<-snapDone
	}
	if err != nil {
		return nil, err
	}
	obs = &Observation{
		Backend:      "sim",
		Workers:      cores,
		Outcome:      rep.Outcome,
		Iterations:   rep.Iterations,
		Reconfigs:    rep.Reconfigs,
		Faults:       rep.Faults,
		Retries:      rep.Retries,
		Degradations: rep.Degradations,
	}
	if backend == hinch.BackendReal {
		obs.Backend = "real"
	}
	if rec != nil {
		// Span tiling and the span-count/Jobs identity must hold on
		// every run, cancelled ones included.
		if err := trace.Validate(rec, rep); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		obs.Trace = buf.Bytes()
	}
	snk, ok := app.Component(t.sink).(*csink)
	if !ok {
		return nil, fmt.Errorf("sink %q missing after run", t.sink)
	}
	obs.Sink = snk.records()
	for _, rn := range t.reconfs {
		if c, ok := app.Component(rn).(*creconf); ok {
			obs.Requests = append(obs.Requests, len(c.requests()))
		}
	}
	return obs, nil
}

// verify judges one observation against the sequential oracle.
//
// The processed-iteration count and the sink-hash prefix [0, N) are
// exact. Sink records at iterations >= N can appear on the real backend
// through the documented benign EOS-cancellation race (a job observes
// cancelled==false just before cancellation and runs redundantly); at
// most one pipeline window of them is tolerated and their payload is
// unspecified (cancelled upstream stages were skipped).
//
// For event-driven programs the hash at iteration i must be explained
// by SOME joint option subset (option states are fixed within an
// iteration by the manager's entry snapshot, but which iteration a
// trigger's effect lands on is schedule-dependent). The subset sequence
// must additionally be reachable: the minimal number of single-option
// transitions from the declared defaults is bounded by how many trigger
// events can have fired, counted over one pipeline window past the end
// (a trigger on a post-EOS cancelled iteration can still retarget
// earlier in-flight iterations).
func verify(g *Gen, obs *Observation) error {
	n := g.ExpectedIterations()
	if obs.Iterations != n {
		return fmt.Errorf("processed %d iterations, oracle expects %d", obs.Iterations, n)
	}

	seen := map[int]uint64{}
	extras := 0
	for _, r := range obs.Sink {
		if _, dup := seen[r.Iter]; dup {
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		seen[r.Iter] = r.H
		if r.Iter >= n {
			extras++
		}
		if r.Iter < 0 {
			return fmt.Errorf("sink recorded negative iteration %d", r.Iter)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := seen[i]; !ok {
			return fmt.Errorf("sink missing iteration %d of %d", i, n)
		}
	}
	maxExtra := 0
	if obs.Backend == "real" {
		maxExtra = g.Depth + 1
	}
	if extras > maxExtra {
		return fmt.Errorf("sink recorded %d iterations beyond the run's %d (max %d tolerated on %s)", extras, n, maxExtra, obs.Backend)
	}

	horizon := n + g.Depth + 1
	firings := g.MaxFirings(horizon)
	if obs.Reconfigs > firings {
		return fmt.Errorf("%d reconfigurations observed but at most %d trigger firings possible", obs.Reconfigs, firings)
	}
	if !g.HasEvents {
		if obs.Reconfigs != 0 {
			return fmt.Errorf("%d reconfigurations observed in an event-free program", obs.Reconfigs)
		}
		enabled := g.DefaultOptions()
		for i := 0; i < n; i++ {
			if want := g.Expected(i, enabled); seen[i] != want {
				return fmt.Errorf("iteration %d: sink hash %016x, oracle %016x", i, seen[i], want)
			}
		}
		return nil
	}
	return verifySubsets(g, seen, n, firings)
}

// verifySubsets checks event-driven runs against the reachable
// configuration lattice (graph.Configurations): every iteration's hash
// must be explained by some configuration reachable from the declared
// defaults under the managers' binding transition relation — not just
// any of the 2^k option subsets — and the cheapest consistent
// configuration schedule (counting configuration changes, starting
// from the initial configuration) must not need more changes than
// trigger firings could have caused. Both directions are sound for
// generated programs: option states snapshot at iteration entry after
// whole-event application, and the generator's forward bindings carry
// no local actions, so the runtime never rests in a state the
// collapsed-forward model misses.
func verifySubsets(g *Gen, seen map[int]uint64, n, firings int) error {
	cfgs := g.Prog.Configurations()
	nc := len(cfgs)
	if nc > 64 {
		return fmt.Errorf("%d reachable configurations exceed the verifier's 64-state mask", nc)
	}

	match := make([]uint64, n) // bitmask over cfgs explaining iteration i
	for i := 0; i < n; i++ {
		for s, c := range cfgs {
			if g.Expected(i, c.Enabled) == seen[i] {
				match[i] |= 1 << s
			}
		}
		if match[i] == 0 {
			var tried []string
			for _, c := range cfgs {
				tried = append(tried, fmt.Sprintf("%s:%016x", c.Key(), g.Expected(i, c.Enabled)))
			}
			return fmt.Errorf("iteration %d: sink hash %016x matches no reachable configuration (oracle: %s)", i, seen[i], strings.Join(tried, " "))
		}
	}

	// DP over reachable configurations: cost[s] = minimal configuration
	// changes to sit in configuration s at the current iteration. Every
	// change needs at least one trigger firing; jumps between any two
	// reachable states are allowed (several firings can land between two
	// consecutive iterations), which only loosens the bound.
	const inf = int(^uint(0) >> 1)
	cost := make([]int, nc)
	next := make([]int, nc)
	for s, c := range cfgs {
		cost[s] = inf
		if c.Initial {
			cost[s] = 0
		}
	}
	for i := 0; i < n; i++ {
		for s := range next {
			next[s] = inf
		}
		for from := 0; from < nc; from++ {
			if cost[from] == inf {
				continue
			}
			for to := 0; to < nc; to++ {
				if match[i]&(1<<to) == 0 {
					continue
				}
				c := cost[from]
				if from != to {
					c++
				}
				if c < next[to] {
					next[to] = c
				}
			}
		}
		cost, next = next, cost
	}
	best := inf
	for _, c := range cost {
		if c < best {
			best = c
		}
	}
	if best > firings {
		return fmt.Errorf("explaining the sink hashes needs >= %d configuration changes but at most %d trigger firings were possible", best, firings)
	}
	return nil
}
