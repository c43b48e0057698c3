package conformance

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"xspcl/internal/hinch"
)

// cancelAt is a FaultInjector that never injects faults; it fires a
// context cancel the first time the named task executes at or past the
// target iteration. Injection happens at dispatch, before the component
// runs, and skipped (already-cancelled) jobs never consult the
// injector, so on the sim backend the cancel lands at one exact point
// in the virtual-time schedule — the lever that makes cancelled sim
// runs replayable.
type cancelAt struct {
	task   string
	iter   int
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelAt) Inject(task string, iter, attempt int) hinch.Fault {
	if task == c.task && iter >= c.iter && c.fired.CompareAndSwap(false, true) {
		c.cancel()
	}
	return hinch.Fault{}
}

// CheckCancelled generates the program for seed and runs the
// cancellation battery:
//
//   - sim, five times, with a deterministic in-band cancel fired when
//     the sink reaches the midpoint iteration: every run must yield a
//     byte-identical observation AND a byte-identical Perfetto trace
//     export — cancellation must not cost the sim its replayability;
//   - real backend at each worker count with a seed-derived wall-clock
//     cancel racing the run: whatever the race outcome, the partial
//     report must satisfy the cancelled-run contract below.
//
// The cancelled-run contract: Outcome reflects whether the context
// fired before return; Iterations never exceeds the oracle count; every
// sink record below the oracle count carries an oracle-explainable
// hash (exact for event-free programs, some reachable configuration
// for event-driven ones); records are duplicate-free; and at least
// Iterations records exist (a counted iteration ran its sink job).
func CheckCancelled(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	g, err := Generate(seed)
	if err != nil {
		return err
	}
	n := g.ExpectedIterations()
	if n < 4 {
		// Too short to cancel mid-run meaningfully; the complete-run
		// battery (Check) already covers it.
		opt.Logf("seed %d: only %d iterations, skipping cancellation battery", seed, n)
		return nil
	}
	target := n / 2
	opt.Logf("seed %d: cancelling at sink iteration %d of %d (depth=%d cells=%d events=%v)",
		seed, target, n, g.Depth, g.NCells, g.HasEvents)

	// Sim determinism: five runs, each with a fresh context cancelled
	// in-band at the same schedule point, must agree byte-for-byte on
	// both the observation canon and the exported trace.
	var first *Observation
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		inj := &cancelAt{task: g.SinkName, iter: target, cancel: cancel}
		obs, err := run(g.target(g.Prog), hinch.BackendSim, 3, runOpts{ctx: ctx, faults: inj, traced: true})
		cancel()
		if err != nil {
			return fmt.Errorf("seed %d: sim cancel run %d: %w", seed, i, err)
		}
		if obs.Outcome != hinch.OutcomeCancelled {
			return fmt.Errorf("seed %d: sim cancel run %d: outcome %q, want cancelled", seed, i, obs.Outcome)
		}
		if obs.Iterations >= n {
			return fmt.Errorf("seed %d: sim cancel run %d: processed %d of %d iterations despite midpoint cancel", seed, i, obs.Iterations, n)
		}
		if i == 0 {
			first = obs
			continue
		}
		if a, b := first.canon(), obs.canon(); a != b {
			return fmt.Errorf("seed %d: cancelled sim runs diverged (run 0 vs %d):\n--- run 0 ---\n%s--- run %d ---\n%s", seed, i, a, i, b)
		}
		if !bytes.Equal(first.Trace, obs.Trace) {
			return fmt.Errorf("seed %d: cancelled sim trace diverged between run 0 (%d bytes) and run %d (%d bytes)", seed, len(first.Trace), i, len(obs.Trace))
		}
	}
	if err := verifyCancelled(g, first); err != nil {
		return fmt.Errorf("seed %d: sim cancelled: %w", seed, err)
	}
	opt.Logf("seed %d: sim cancelled at %d/%d iterations, 5 runs byte-identical (%d trace bytes)",
		seed, first.Iterations, n, len(first.Trace))

	// Real backend: a wall-clock cancel races the run. The delay is a
	// pure function of (seed, workers), so a failing combination
	// replays the same race window; the outcome of the race is not —
	// both completions and cancellations are legitimate, each judged
	// by its own contract.
	for _, w := range opt.Workers {
		var hooks hinch.TestHooks
		if opt.Perturb {
			hooks = &perturb{seed: mix(seed, uint64(w), 0xca)}
		}
		delay := time.Duration(mix(seed, uint64(w))%2000) * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		obs, err := run(g.target(g.Prog), hinch.BackendReal, w, runOpts{ctx: ctx, hooks: hooks})
		timer.Stop()
		cancel()
		if err != nil {
			return fmt.Errorf("seed %d: real/%dw cancel: %w", seed, w, err)
		}
		if obs.Outcome == hinch.OutcomeCompleted {
			// The run won the race; it must look like any complete run.
			if err := verify(g, obs); err != nil {
				return fmt.Errorf("seed %d: real/%dw (completed before cancel): %w", seed, w, err)
			}
		} else if err := verifyCancelled(g, obs); err != nil {
			return fmt.Errorf("seed %d: real/%dw cancelled: %w", seed, w, err)
		}
		opt.Logf("seed %d: real/%dw cancel after %v: outcome=%s iters=%d/%d sink=%d",
			seed, w, delay, obs.Outcome, obs.Iterations, n, len(obs.Sink))
	}
	return nil
}

// verifyCancelled judges a partial observation. A cancelled run makes
// weaker promises than a complete one — the processed set need not be
// a contiguous prefix (iterations retire out of order, and the sweep
// freezes whatever was in flight) — but every promise it does make is
// checked:
//
//   - Iterations never exceeds the oracle count;
//   - the sink holds at least Iterations records (every counted
//     iteration executed its sink job) and at most Iterations plus one
//     pipeline window of cancel-raced extras (in-flight iterations
//     that recorded at the sink and then retired uncounted);
//   - records are duplicate-free, non-negative, and bounded by the
//     oracle count plus the EOS window;
//   - every record below the oracle count is oracle-explainable:
//     exactly the default-options hash for event-free programs, some
//     reachable configuration for event-driven ones (records at or
//     past the count have unspecified payload, as in verify);
//   - reconfiguration counts stay within the trigger-firing budget,
//     and are zero for event-free programs.
func verifyCancelled(g *Gen, obs *Observation) error {
	n := g.ExpectedIterations()
	if obs.Iterations > n {
		return fmt.Errorf("cancelled run processed %d iterations, oracle caps at %d", obs.Iterations, n)
	}
	window := g.Depth + obs.Workers + 1
	seen := map[int]uint64{}
	for _, r := range obs.Sink {
		if _, dup := seen[r.Iter]; dup {
			return fmt.Errorf("sink recorded iteration %d twice", r.Iter)
		}
		if r.Iter < 0 {
			return fmt.Errorf("sink recorded negative iteration %d", r.Iter)
		}
		if r.Iter >= n+g.Depth+1 {
			return fmt.Errorf("sink recorded iteration %d, beyond oracle count %d plus the EOS window", r.Iter, n)
		}
		seen[r.Iter] = r.H
	}
	if len(obs.Sink) < obs.Iterations {
		return fmt.Errorf("%d sink records for %d counted iterations — a counted iteration skipped its sink", len(obs.Sink), obs.Iterations)
	}
	if extra := len(obs.Sink) - obs.Iterations; extra > window {
		return fmt.Errorf("%d sink records exceed the %d counted iterations by more than one pipeline window (%d)", len(obs.Sink), obs.Iterations, window)
	}

	firings := g.MaxFirings(n + g.Depth + 1)
	if obs.Reconfigs > firings {
		return fmt.Errorf("%d reconfigurations observed but at most %d trigger firings possible", obs.Reconfigs, firings)
	}
	if !g.HasEvents {
		if obs.Reconfigs != 0 {
			return fmt.Errorf("%d reconfigurations observed in an event-free program", obs.Reconfigs)
		}
		enabled := g.DefaultOptions()
		for iter, h := range seen {
			if iter >= n {
				continue // unspecified payload, as in verify
			}
			if want := g.Expected(iter, enabled); h != want {
				return fmt.Errorf("iteration %d: sink hash %016x, oracle %016x", iter, h, want)
			}
		}
		return nil
	}

	// Event-driven: the prefix-walk DP of verifySubsets needs every
	// iteration present, which a truncated run cannot promise. The
	// per-iteration obligation still holds — each recorded hash must be
	// explained by some configuration reachable from the declared
	// defaults.
	cfgs := g.Prog.Configurations()
	if len(cfgs) > 64 {
		return fmt.Errorf("%d reachable configurations exceed the verifier's 64-state mask", len(cfgs))
	}
	for iter, h := range seen {
		if iter >= n {
			continue
		}
		ok := false
		for _, c := range cfgs {
			if g.Expected(iter, c.Enabled) == h {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("iteration %d: sink hash %016x matches no reachable configuration", iter, h)
		}
	}
	return nil
}
