package xspcl_test

import (
	"testing"

	"xspcl/internal/components"
	"xspcl/internal/hinch"
)

// TestSchedulerSteadyStateAllocs pins the scheduler's zero-allocation
// steady state: the marginal cost of an extra iteration through the
// dispatch loop must be less than one allocation. An App runs once, so
// the hot path can't be isolated with AllocsPerRun directly; instead
// the test measures build+run at two iteration counts and divides the
// difference by the extra iterations — construction garbage is
// identical on both sides and cancels, leaving only the per-iteration
// dispatch cost. AllocsPerRun holds GOMAXPROCS at 1, which also makes
// the lazily-spawned worker set deterministic.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is slow under -short")
	}
	prog := schedThroughputProgram()
	reg := components.DefaultRegistry()
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			app, err := hinch.NewApp(prog, reg, hinch.Config{
				Backend: hinch.BackendReal, Cores: 4, Workless: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.Run(iters); err != nil {
				t.Fatal(err)
			}
		})
	}
	const lo, hi = 64, 256
	allocLo := measure(lo)
	allocHi := measure(hi)
	perIter := (allocHi - allocLo) / float64(hi-lo)
	t.Logf("allocs: %.0f @ %d iters, %.0f @ %d iters -> %.3f allocs/iter",
		allocLo, lo, allocHi, hi, perIter)
	if perIter >= 1 {
		t.Errorf("scheduler hot path allocates %.3f allocs per iteration, want < 1", perIter)
	}
}

// TestSchedulerScalingMonotonic guards the tentpole scaling property:
// adding workers must never make the scheduler-bound workload slower
// than one worker. Worker bring-up is lazy and capped at the host's
// parallelism, so on any machine — including a single-CPU CI box,
// where the 4-core config degenerates to the same sequential loop —
// the 4-worker wall time stays within noise of the 1-worker time.
// The 1- and 4-worker runs alternate, so load from other processes
// lands on both sides alike, and best-of-25 on each side filters
// scheduler jitter; the 1.5x bound is deliberately loose so only a
// real regression (like the seed's 1.6x mid-scale hump) trips it.
func TestSchedulerScalingMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison is noisy under -short")
	}
	prog := schedThroughputProgram()
	reg := components.DefaultRegistry()
	wall := func(cores int) float64 {
		app, err := hinch.NewApp(prog, reg, hinch.Config{
			Backend: hinch.BackendReal, Cores: cores, Workless: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(64)
		if err != nil {
			t.Fatal(err)
		}
		return float64(rep.Wall.Nanoseconds())
	}
	wall1, wall4 := 0.0, 0.0
	for i := 0; i < 25; i++ {
		if ns := wall(1); wall1 == 0 || ns < wall1 {
			wall1 = ns
		}
		if ns := wall(4); wall4 == 0 || ns < wall4 {
			wall4 = ns
		}
	}
	t.Logf("best wall: 1 worker %.0fns, 4 workers %.0fns (%.2fx)", wall1, wall4, wall4/wall1)
	if wall4 > wall1*1.5 {
		t.Errorf("4 workers took %.2fx the 1-worker time, want monotonic (<= 1.5x noise bound)",
			wall4/wall1)
	}
}
