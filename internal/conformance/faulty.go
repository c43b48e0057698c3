package conformance

import (
	"fmt"
	"time"

	"xspcl/internal/analysis"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

// This file extends the differential harness with fault injection: a
// seeded family of degradable programs (GenerateFaulty) paired with a
// deterministic injection schedule and a hand-rolled oracle that
// predicts the *fallback* configuration's output, and a runner
// (CheckFaulty) asserting that the sim backend and the real backend at
// every worker count converge to that prediction — same holes, same
// hashes, same counter arithmetic.
//
// Each generated program is the canonical degradable pipeline
//
//	src → pre → manager "deg" (queue fq: fault→disable primary,
//	                                     fault→enable backup)
//	      { option primary (on):  p1[policy] → p2
//	        option backup  (off): b1 }
//	→ post → snk
//
// with a pure cwork spine (no cells), so the oracle per configuration
// is a straight mix chain. From iteration From on, every attempt of p1
// is faulted; the failure policy exhausts, the runtime emits a fault
// event, the manager flips primary→backup, and the rest of the run
// must produce the fallback hashes bit-identically on every backend.

// FaultyMode selects which policy leg a generated program exercises.
type FaultyMode int

const (
	// FaultyRetry: p1 declares retry:N with backoff; injected errors
	// exhaust the retries and each faulted iteration becomes a hole.
	FaultyRetry FaultyMode = iota
	// FaultySkip: p1 declares skip-iteration; injected panics are
	// contained and each faulted iteration becomes a hole.
	FaultySkip
	// FaultyDeadline: p1 declares a deadline; injected latency spikes
	// overrun it. Outputs stand (no holes) but the watchdog degrades.
	FaultyDeadline
)

func (m FaultyMode) String() string {
	switch m {
	case FaultyRetry:
		return "retry"
	case FaultySkip:
		return "skip"
	case FaultyDeadline:
		return "deadline"
	}
	return fmt.Sprintf("FaultyMode(%d)", int(m))
}

// Deadline-mode timing: the injected spike must dwarf the deadline,
// and the deadline must dwarf an honest job's cost (including OS noise
// on the real backend, where the watchdog measures wall time).
const (
	faultyDeadline = 20 * time.Millisecond
	faultyDelay    = 120 * time.Millisecond
)

// FaultyGen is one generated degradable program plus its injection
// schedule and oracle inputs.
type FaultyGen struct {
	Seed uint64
	Prog *graph.Program
	Mode FaultyMode

	From    int // first faulted iteration
	Retries int // p1's retry budget (FaultyRetry only)
	Depth   int // Config.PipelineDepth
	Iters   int // Run argument

	Injector *hinch.SeededFaults

	srcStamp, preStamp, p1Stamp, p2Stamp, b1Stamp, postStamp uint64
}

// Expected computes the oracle sink hash for one iteration in either
// the primary or the fallback configuration.
func (g *FaultyGen) Expected(iter int, fallback bool) uint64 {
	it := uint64(iter)
	h := mix(g.srcStamp, it)
	h = mix(h, g.preStamp, it)
	if fallback {
		h = mix(h, g.b1Stamp, it)
	} else {
		h = mix(h, g.p1Stamp, it)
		h = mix(h, g.p2Stamp, it)
	}
	return mix(h, g.postStamp, it)
}

// GenerateFaulty builds the degradable program for one seed. The mode,
// fault onset, retry budget and pipeline depth are all seed-derived;
// Iters leaves enough post-flip iterations that the fallback output is
// always observable.
func GenerateFaulty(seed uint64) (*FaultyGen, error) {
	r := newRnd(seed)
	g := &FaultyGen{
		Seed:    seed,
		Mode:    FaultyMode(seed % 3),
		From:    2 + int(seed%3),
		Retries: 1 + int(seed%3),
		Depth:   3 + int((seed/3)%3),
	}
	g.Iters = g.From + g.Depth + 6
	g.srcStamp, g.preStamp, g.p1Stamp = r.next(), r.next(), r.next()
	g.p2Stamp, g.b1Stamp, g.postStamp = r.next(), r.next(), r.next()

	p1 := graph.Params{"stamp": fmt.Sprint(g.p1Stamp)}
	inj := &hinch.SeededFaults{Seed: seed, Task: "p1", From: g.From}
	switch g.Mode {
	case FaultyRetry:
		p1[graph.OnErrorParam] = fmt.Sprintf("retry:%d,backoff=2x,base=100us", g.Retries)
		inj.Kind = hinch.FaultError
	case FaultySkip:
		g.Retries = 0
		p1[graph.OnErrorParam] = "skip-iteration"
		inj.Kind = hinch.FaultPanic
	case FaultyDeadline:
		g.Retries = 0
		p1[graph.DeadlineParam] = faultyDeadline.String()
		inj.Kind = hinch.FaultDelay
		inj.Delay = faultyDelay
	}
	g.Injector = inj

	b := graph.NewBuilder(fmt.Sprintf("faulty-%d", seed))
	b.Stream("s0").Stream("s1").Stream("s2").Stream("s3")
	b.Queue("fq")
	b.Body(
		b.Component("src", "csrc", graph.Ports{"out": "s0"},
			graph.Params{"stamp": fmt.Sprint(g.srcStamp)}),
		b.Component("pre", "cwork", graph.Ports{"in": "s0", "out": "s1"},
			graph.Params{"stamp": fmt.Sprint(g.preStamp)}),
		b.Manager("deg", "fq", []graph.EventBinding{
			graph.On(graph.FaultEvent, graph.ActionDisable, "primary"),
			graph.On(graph.FaultEvent, graph.ActionEnable, "backup"),
		},
			b.Option("primary", true,
				b.Component("p1", "cwork", graph.Ports{"in": "s1", "out": "s2"}, p1),
				b.Component("p2", "cwork", graph.Ports{"in": "s2", "out": "s3"},
					graph.Params{"stamp": fmt.Sprint(g.p2Stamp)})),
			b.Option("backup", false,
				b.Component("b1", "cwork", graph.Ports{"in": "s1", "out": "s3"},
					graph.Params{"stamp": fmt.Sprint(g.b1Stamp)}))),
		b.Component("post", "cwork", graph.Ports{"in": "s3", "out": "s3"},
			graph.Params{"stamp": fmt.Sprint(g.postStamp)}),
		b.Component("snk", "csink", graph.Ports{"in": "s3"}, nil),
	)
	prog, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("conformance: faulty seed %d: %w", seed, err)
	}
	if err := prog.Validate(Registry()); err != nil {
		return nil, fmt.Errorf("conformance: faulty seed %d: %w", seed, err)
	}
	g.Prog = prog
	return g, nil
}

// CheckFaulty generates the degradable program for seed and runs the
// full battery: analyzer precheck (the faults pass must bless the
// program), emit→parse round-trip including the policy attributes, sim
// determinism (twice, byte-identical), and sim plus real at every
// worker count against the degradation oracle. Any divergence is
// returned as an error prefixed with the seed.
func CheckFaulty(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	g, err := GenerateFaulty(seed)
	if err != nil {
		return err
	}
	opt.Logf("faulty seed %d: mode=%s from=%d retries=%d depth=%d iters=%d",
		seed, g.Mode, g.From, g.Retries, g.Depth, g.Iters)

	// The generator builds exactly the shape the faults pass demands, so
	// any error or warning here is an analyzer regression.
	arep, err := analysis.Analyze(g.Prog, analysis.Options{Catalog: Registry()})
	if err != nil {
		return fmt.Errorf("faulty seed %d: analyzer: %w", seed, err)
	}
	if arep.HasErrors() || arep.Count(analysis.Warning) > 0 {
		return fmt.Errorf("faulty seed %d: analyzer flagged a clean degradable program: %+v", seed, arep.Findings)
	}
	if nc := len(g.Prog.Configurations()); nc != 2 {
		return fmt.Errorf("faulty seed %d: %d reachable configurations, want 2", seed, nc)
	}

	// The battery's round-trip also proves on_error/deadline survive
	// emit→parse.
	return battery{
		label:  fmt.Sprintf("faulty seed %d", seed),
		seed:   seed,
		salt:   []uint64{0xfa},
		target: g.target,
		prog:   g.Prog,
		faults: g.Injector,
		verify: func(o *Observation) error { return verifyFaulty(g, o) },
	}.run(opt)
}

// verifyFaulty judges one run against the degradation oracle.
//
// Manager entries execute in iteration order on both backends, so the
// configuration assignment is monotone: primary for iterations [0, t),
// backup from t on, for some flip point t. WHERE the flip lands is
// schedule-dependent on the real backend (it depends on which entry
// first drains the fault event), so t is recovered from the observed
// records and only bounded: the event is pushed during iteration
// From's execution and at most Depth+1 further entries can have
// pre-dated it.
//
// Retry/skip modes hole every faulted primary iteration: records [0,
// From) carry primary hashes, [From, t) are missing, [t, Iters) carry
// fallback hashes, and the counters satisfy Faults = holes·(R+1),
// Retries = holes·R, Degradations = holes. Deadline mode holes
// nothing: the overrun outputs stand, so [0, t) are primary hashes and
// Degradations counts exactly the overrun iterations [From, t).
func verifyFaulty(g *FaultyGen, obs *Observation) error {
	const (
		stHole = iota
		stPrimary
		stFallback
	)
	state := make([]int, g.Iters)
	seen := map[int]bool{}
	for _, r := range obs.Sink {
		if r.Iter < 0 || r.Iter >= g.Iters {
			return fmt.Errorf("sink recorded out-of-range iteration %d (run is %d iterations)", r.Iter, g.Iters)
		}
		if seen[r.Iter] {
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		seen[r.Iter] = true
		switch r.H {
		case g.Expected(r.Iter, false):
			state[r.Iter] = stPrimary
		case g.Expected(r.Iter, true):
			state[r.Iter] = stFallback
		default:
			return fmt.Errorf("iteration %d: sink hash %016x matches neither configuration (primary %016x, fallback %016x)",
				r.Iter, r.H, g.Expected(r.Iter, false), g.Expected(r.Iter, true))
		}
	}

	t := -1
	for i, s := range state {
		if s == stFallback {
			t = i
			break
		}
	}
	if t < 0 {
		return fmt.Errorf("run never degraded to the fallback configuration")
	}
	if t <= g.From || t > g.From+g.Depth+2 {
		return fmt.Errorf("flip at iteration %d, want within (%d, %d]", t, g.From, g.From+g.Depth+2)
	}
	for i := 0; i < g.From; i++ {
		if state[i] != stPrimary {
			return fmt.Errorf("iteration %d (before fault onset %d): state %d, want a primary record", i, g.From, state[i])
		}
	}
	holes := 0
	for i := g.From; i < t; i++ {
		switch {
		case g.Mode == FaultyDeadline && state[i] != stPrimary:
			return fmt.Errorf("iteration %d (overrun window): state %d, want a primary record (deadline overruns keep their outputs)", i, state[i])
		case g.Mode != FaultyDeadline && state[i] != stHole:
			return fmt.Errorf("iteration %d (faulted window): state %d, want a hole", i, state[i])
		}
		holes++
	}
	if g.Mode == FaultyDeadline {
		holes = 0
	}
	for i := t; i < g.Iters; i++ {
		if state[i] != stFallback {
			return fmt.Errorf("iteration %d (after flip at %d): state %d, want a fallback record", i, t, state[i])
		}
	}

	if want := g.Iters - holes; obs.Iterations != want {
		return fmt.Errorf("processed %d iterations, want %d (%d holes)", obs.Iterations, want, holes)
	}
	if obs.Reconfigs != 1 {
		return fmt.Errorf("reconfigs = %d, want 1 (residual fault events must be no-ops)", obs.Reconfigs)
	}
	var wantFaults, wantRetries, wantDegr int64
	switch g.Mode {
	case FaultyRetry:
		wantFaults = int64(holes) * int64(g.Retries+1)
		wantRetries = int64(holes) * int64(g.Retries)
		wantDegr = int64(holes)
	case FaultySkip:
		wantFaults = int64(holes)
		wantDegr = int64(holes)
	case FaultyDeadline:
		wantDegr = int64(t - g.From)
	}
	if obs.Faults != wantFaults || obs.Retries != wantRetries || obs.Degradations != wantDegr {
		return fmt.Errorf("counters faults=%d retries=%d degradations=%d, want %d/%d/%d (mode %s, %d holes, flip %d)",
			obs.Faults, obs.Retries, obs.Degradations, wantFaults, wantRetries, wantDegr, g.Mode, holes, t)
	}
	return nil
}
