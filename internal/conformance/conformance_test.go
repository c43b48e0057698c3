package conformance

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	"xspcl/internal/xspcl"
)

// smokeSeeds is the fixed CI seed set: a spread chosen (see
// TestGeneratedProgramsValid's family census) so the smoke run covers
// every program family — multi-source, EOS-driven, event-driven and
// plain chains.
var smokeSeeds = []uint64{
	0, 1, 2, 3, 7, 9, 8, 13, // single-source: event-driven and plain, EOS and fixed-length
	23, 28, 30, 38, 40, 48, 51, 55, // multi-source: these reliably catch the ensureBuffers ordering bug
}

// TestConformanceSmoke is the CI conformance gate. With
// CONFORMANCE_SEED=<n> it instead replays that single seed verbosely —
// the deterministic reproduction path for a failure found by the
// fuzzer, the long runner, or a CI smoke run.
func TestConformanceSmoke(t *testing.T) {
	if env := os.Getenv("CONFORMANCE_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("CONFORMANCE_SEED=%q: %v", env, err)
		}
		if err := Check(seed, Options{Perturb: true, Logf: t.Logf}); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, seed := range smokeSeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			if err := Check(seed, Options{Perturb: true, Workers: []int{2, 8}}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceTracedSmoke re-runs the multi-source smoke seeds with
// the flight recorder attached on every backend run. It exists for two
// regressions the plain smoke can't catch: the recorder's shard
// discipline racing a perturbed schedule (this test is part of the
// -race CI lane), and the trace invariants (span nesting, span count
// vs. executed jobs) drifting from the runtime on the generated-program
// family rather than the hand-built apps the trace package tests use.
func TestConformanceTracedSmoke(t *testing.T) {
	for _, seed := range smokeSeeds[8:] { // the multi-source half
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			if err := Check(seed, Options{Perturb: true, Trace: true, Workers: []int{8}}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplicatedConformanceSmoke is the CI gate for width-based
// replication: the smoke seeds re-run with replicate= attributes
// injected on their stateless spine stages and the autotuner live on
// every backend. The sink output must stay bit-identical to the
// unreplicated oracle at every worker count while widths and stream
// depths resize mid-run — under schedule perturbation and (in the CI
// -race lane) the race detector, this is the proof that concurrent
// same-task iterations and live resizes are safe.
// CONFORMANCE_SEED replays a single seed, as in TestConformanceSmoke.
func TestReplicatedConformanceSmoke(t *testing.T) {
	if env := os.Getenv("CONFORMANCE_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("CONFORMANCE_SEED=%q: %v", env, err)
		}
		if err := CheckReplicated(seed, Options{Perturb: true, Logf: t.Logf}); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, seed := range smokeSeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			if err := CheckReplicated(seed, Options{Perturb: true, Workers: []int{1, 2, 4, 8}}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGeneratedReplicatedProgramsValid sweeps the replicated generator
// through validation and the round-trip, and asserts the injector
// actually replicates at least one stage of every program.
func TestGeneratedReplicatedProgramsValid(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		g, err := GenerateReplicated(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nrep := 0
		for _, n := range g.Prog.Components() {
			if n.Params[graph.ReplicateParam] != "" {
				nrep++
			}
		}
		if nrep == 0 {
			t.Fatalf("seed %d: injector left the program unreplicated", seed)
		}
		xml, err := xspcl.EmitXML(g.Prog)
		if err != nil {
			t.Fatalf("seed %d: emit: %v", seed, err)
		}
		prog2, err := xspcl.Load(xml)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if a, b := g.Prog.String(), prog2.String(); a != b {
			t.Fatalf("seed %d: replicated round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", seed, a, b)
		}
	}
}

// TestGeneratedProgramsValid sweeps a seed range through generation,
// superplan construction and the emit→parse round-trip, and asserts the
// generator actually produces every program family it advertises.
func TestGeneratedProgramsValid(t *testing.T) {
	var multi, eos, events, plain int
	for seed := uint64(0); seed < 200; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		allOn := map[string]bool{}
		for name := range g.Prog.Options() {
			allOn[name] = true
		}
		plan, err := graph.BuildPlan(g.Prog, allOn)
		if err != nil {
			t.Fatalf("seed %d: superplan: %v", seed, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: superplan validate: %v", seed, err)
		}
		xml, err := xspcl.EmitXML(g.Prog)
		if err != nil {
			t.Fatalf("seed %d: emit: %v", seed, err)
		}
		prog2, err := xspcl.Load(xml)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if a, b := g.Prog.String(), prog2.String(); a != b {
			t.Fatalf("seed %d: round-trip changed the program:\n--- built ---\n%s\n--- reparsed ---\n%s", seed, a, b)
		}
		switch {
		case g.MultiSource:
			multi++
		case g.HasEvents:
			events++
		default:
			plain++
		}
		if g.Frames > 0 {
			eos++
		}
	}
	if multi == 0 || eos == 0 || events == 0 || plain == 0 {
		t.Fatalf("generator family census degenerate: multi=%d eos=%d events=%d plain=%d", multi, eos, events, plain)
	}
	t.Logf("family census over 200 seeds: multi=%d eos=%d events=%d plain=%d", multi, eos, events, plain)
}

// TestOracleMatchesSim pins the oracle itself: for a handful of
// event-free seeds the sequential evaluator must reproduce the sim
// backend's sink hashes exactly (the sim backend is the semantic
// reference carried over from the paper experiments).
func TestOracleMatchesSim(t *testing.T) {
	checked := 0
	for seed := uint64(0); seed < 64 && checked < 8; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.HasEvents {
			continue
		}
		checked++
		obs, err := run(g.target(g.Prog), hinch.BackendSim, 2, runOpts{})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		if err := verify(g, obs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if checked == 0 {
		t.Fatal("no event-free seeds in range")
	}
}

// TestConformanceSnapshotSmoke pins that App.Snapshot is a pure
// observer: hammering it from a second goroutine for the whole run
// must leave the sim backend's observables bit-identical to an
// unobserved run, and a perturbed 8-worker real run under observation
// must still satisfy the sequential oracle. Run with -race this also
// proves every snapshot read path is properly synchronised.
func TestConformanceSnapshotSmoke(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plain, err := run(g.target(g.Prog), hinch.BackendSim, 3, runOpts{})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		observed, err := run(g.target(g.Prog), hinch.BackendSim, 3, runOpts{observe: true})
		if err != nil {
			t.Fatalf("seed %d: sim observed: %v", seed, err)
		}
		if a, b := plain.canon(), observed.canon(); a != b {
			t.Fatalf("seed %d: snapshot hammering changed the sim run:\n--- plain ---\n%s--- observed ---\n%s", seed, a, b)
		}

		hooks := &perturb{seed: mix(seed, 8)}
		real, err := run(g.target(g.Prog), hinch.BackendReal, 8, runOpts{hooks: hooks, observe: true})
		if err != nil {
			t.Fatalf("seed %d: real observed: %v", seed, err)
		}
		if err := verify(g, real); err != nil {
			t.Fatalf("seed %d: real observed: %v", seed, err)
		}
	}
}
