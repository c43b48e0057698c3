package hinch

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xspcl/internal/graph"
)

// leakCheck snapshots the goroutine count and returns a func (deferred
// by callers) that fails the test if the count has not returned to the
// baseline within a grace window. Cancellation must never strand a
// worker, watcher or timer goroutine.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before run, %d after settle", before, now)
	}
}

// cancelOnce is a FaultInjector that injects nothing but fires a
// context.CancelFunc the first time the named task reaches iteration
// iter — a deterministic in-band cancellation trigger. On the sim
// backend the cancel lands synchronously inside the event loop, so the
// engine observes it at the next loop-top poll: the same virtual-cycle
// boundary on every run.
type cancelOnce struct {
	task   string
	iter   int
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelOnce) Inject(task string, iter, attempt int) Fault {
	if task == c.task && iter >= c.iter && c.fired.CompareAndSwap(false, true) {
		c.cancel()
	}
	return Fault{}
}

// cancelSpam fires the CancelFunc on every matching attempt — the
// double- (and N-fold-) cancel case; noteCancel must be idempotent.
type cancelSpam struct {
	task   string
	iter   int
	cancel context.CancelFunc
}

func (c *cancelSpam) Inject(task string, iter, attempt int) Fault {
	if task == c.task && iter >= c.iter {
		c.cancel()
	}
	return Fault{}
}

// runCancelled builds the app and runs it under ctx, asserting the run
// ends cleanly (nil error) with a cancelled partial report.
func runCancelled(t *testing.T, prog *graph.Program, cfg Config, ctx context.Context, iters int) (*App, *Report) {
	t.Helper()
	app, err := NewApp(prog, testRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.RunContext(ctx, iters)
	if err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
	if rep.Outcome != OutcomeCancelled {
		t.Fatalf("outcome = %q, want %q", rep.Outcome, OutcomeCancelled)
	}
	return app, rep
}

func TestRunContextNilAndBackgroundComplete(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, err := NewApp(chainProg(), testRegistry(), Config{Backend: backend, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.RunContext(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome != OutcomeCompleted {
			t.Fatalf("backend %d: outcome = %q, want completed", backend, rep.Outcome)
		}
		if rep.Iterations != 10 {
			t.Fatalf("backend %d: %d iterations", backend, rep.Iterations)
		}
		// The report's JSON always carries the outcome, and the legacy
		// String() stays byte-stable for completed runs.
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(js), `"outcome":"completed"`) {
			t.Fatalf("report JSON missing completed outcome: %s", js)
		}
		if strings.Contains(rep.String(), "outcome=") {
			t.Fatalf("completed String() should not mention outcome: %s", rep)
		}
	}
}

func TestRunContextCancelBeforeFirstDispatch(t *testing.T) {
	defer leakCheck(t)()
	for _, backend := range []Backend{BackendSim, BackendReal} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // fired before the run starts
		app, rep := runCancelled(t, chainProg(), Config{Backend: backend, Cores: 2, PipelineDepth: 4}, ctx, 50)
		if rep.Iterations != 0 {
			// Both backends check the context before the first launch
			// (sim at its loop top, real before launch), so a
			// pre-cancelled context deterministically processes nothing.
			t.Fatalf("backend %d: pre-cancel processed %d iterations, want 0", backend, rep.Iterations)
		}
		if !app.Snapshot().Cancelled {
			t.Fatalf("backend %d: snapshot does not report cancellation", backend)
		}
		js, _ := json.Marshal(rep)
		if !strings.Contains(string(js), `"outcome":"cancelled"`) {
			t.Fatalf("backend %d: report JSON missing cancelled outcome: %s", backend, js)
		}
		if !strings.Contains(rep.String(), "outcome=cancelled") {
			t.Fatalf("backend %d: String() missing outcome: %s", backend, rep)
		}
	}
}

func TestRunContextCancelMidRunSimDeterministic(t *testing.T) {
	defer leakCheck(t)()
	// The cancel fires from inside the deterministic event loop (via the
	// fault injector) — every run must produce the identical partial
	// report and sink content.
	run := func() (*Report, []int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := Config{
			Backend: BackendSim, Cores: 3, PipelineDepth: 4,
			Faults: &cancelOnce{task: "snk", iter: 20, cancel: cancel},
		}
		app, rep := runCancelled(t, chainProg(), cfg, ctx, 200)
		return rep, app.Component("snk").(*intSink).values()
	}
	rep0, vals0 := run()
	if rep0.Iterations == 0 || rep0.Iterations >= 200 {
		t.Fatalf("partial run processed %d iterations, want mid-run cancel", rep0.Iterations)
	}
	// The sink may hold a few more values than counted iterations: the
	// iteration whose sink attempt fired the cancel recorded its value
	// but retired uncounted. Never fewer, though.
	if len(vals0) < rep0.Iterations {
		t.Fatalf("sink recorded %d values but report counts %d iterations", len(vals0), rep0.Iterations)
	}
	for _, v := range vals0 {
		if v%2 != 0 || v/2 >= 200 {
			t.Fatalf("sink value %d is not a doubled iteration", v)
		}
	}
	for i := 0; i < 4; i++ {
		rep, vals := run()
		if rep.Iterations != rep0.Iterations || rep.Jobs != rep0.Jobs || rep.Cycles != rep0.Cycles {
			t.Fatalf("run %d diverged: iters=%d jobs=%d cycles=%d, want iters=%d jobs=%d cycles=%d",
				i, rep.Iterations, rep.Jobs, rep.Cycles, rep0.Iterations, rep0.Jobs, rep0.Cycles)
		}
		if !reflect.DeepEqual(vals, vals0) {
			t.Fatalf("run %d sink diverged:\n got %v\nwant %v", i, vals, vals0)
		}
	}
}

func TestRunContextCancelMidRunReal(t *testing.T) {
	defer leakCheck(t)()
	for _, controls := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Backend: BackendReal, Cores: 4, PipelineDepth: 6,
			Faults: &cancelOnce{task: "snk", iter: 30, cancel: cancel},
		}
		if controls {
			// Every periodic control armed alongside the cancel watcher:
			// the one control goroutine must still be joined.
			cfg.Autotune, cfg.TuneEpochWall = true, 100*time.Microsecond
			cfg.Telemetry, cfg.WatchdogWall = true, 100*time.Microsecond
		}
		app, rep := runCancelled(t, chainProg(), cfg, ctx, 5000)
		cancel()
		if rep.Iterations >= 5000 {
			t.Fatalf("controls=%v: run completed all iterations despite cancel", controls)
		}
		sink := app.Component("snk").(*intSink)
		seen := map[int]bool{}
		for _, v := range sink.values() {
			if v%2 != 0 || v/2 >= 5000 {
				t.Fatalf("controls=%v: sink value %d is not a doubled iteration", controls, v)
			}
			if seen[v] {
				t.Fatalf("controls=%v: sink value %d recorded twice", controls, v)
			}
			seen[v] = true
		}
		if len(seen) < rep.Iterations {
			t.Fatalf("controls=%v: sink recorded %d values, report counts %d", controls, len(seen), rep.Iterations)
		}
	}
}

func TestRunContextCancelMidReconfig(t *testing.T) {
	defer leakCheck(t)()
	// Reconfigurations halt managers and park iterations; a cancel
	// landing in that window must still drain — parked entries release
	// when the stall elapses and the cancelled iterations no-op through.
	for _, backend := range []Backend{BackendSim, BackendReal} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Backend: backend, Cores: 2, PipelineDepth: 3,
			Faults: &cancelOnce{task: "snk", iter: 25, cancel: cancel},
		}
		_, rep := runCancelled(t, reconfigProg(false, 10), cfg, ctx, 120)
		if rep.Iterations >= 120 {
			t.Fatalf("backend %d: completed all iterations despite cancel", backend)
		}
		cancel()
	}
}

func TestRunContextCancelDuringEOSTail(t *testing.T) {
	defer leakCheck(t)()
	// The source EOSes at frame 20 while the pipeline runs 8 deep, so
	// the engine is already draining the EOS tail when the cancel lands
	// at the sink — the two early-stop paths must compose.
	prog := func() *graph.Program {
		b := graph.NewBuilder("eostail")
		b.Stream("a").Stream("b")
		b.Body(
			b.Component("src", "intsrc", graph.Ports{"out": "a"}, graph.Params{"frames": "20"}),
			b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, nil),
			b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
		)
		return b.MustProgram()
	}()
	for _, backend := range []Backend{BackendSim, BackendReal} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Backend: backend, Cores: 3, PipelineDepth: 8,
			Faults: &cancelOnce{task: "snk", iter: 15, cancel: cancel},
		}
		_, rep := runCancelled(t, prog, cfg, ctx, 60)
		if rep.Iterations > 20 {
			t.Fatalf("backend %d: processed %d iterations past the EOS point", backend, rep.Iterations)
		}
		cancel()
	}
}

func TestRunContextDoubleCancel(t *testing.T) {
	defer leakCheck(t)()
	for _, backend := range []Backend{BackendSim, BackendReal} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Backend: backend, Cores: 2, PipelineDepth: 4,
			// Every sink attempt from iteration 10 on re-fires the
			// cancel; the engine-side note must be idempotent.
			Faults: &cancelSpam{task: "snk", iter: 10, cancel: cancel},
		}
		_, rep := runCancelled(t, chainProg(), cfg, ctx, 300)
		if rep.Iterations >= 300 {
			t.Fatalf("backend %d: completed all iterations despite cancel", backend)
		}
		cancel() // and once more from outside, after the run returned
	}
}

func TestRunContextCancelInterruptsBackoff(t *testing.T) {
	defer leakCheck(t)()
	// failer fails every attempt of iteration 3; the retry policy backs
	// off 10s between attempts. Cancelling 30ms in must abort the sleep:
	// the run returns promptly and the never-made re-attempt is NOT
	// counted in Report.Retries (the failed attempt still counts as a
	// fault). The enclosing manager exists only as a safety net in case
	// the retries somehow exhaust. The 10s-sleep/5s-bound split leaves
	// room for race-detector and single-core CI slowness on the prompt
	// side while staying far below one uninterrupted backoff.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := degradeProg("failer", graph.Params{
		"at": "3", graph.OnErrorParam: "retry:3,base=10s",
	})
	app, err := NewApp(prog, faultRegistry(), Config{Backend: BackendReal, Cores: 2, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	rep, err := app.RunContext(ctx, 50)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeCancelled {
		t.Fatalf("outcome = %q, want cancelled", rep.Outcome)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run took %v; the 10s backoff was not interrupted", elapsed)
	}
	if rep.Retries != 0 {
		t.Fatalf("aborted re-attempt counted: Retries = %d, want 0", rep.Retries)
	}
	if rep.Faults == 0 {
		t.Fatalf("the failed attempt should still count as a fault")
	}
}

func TestRunContextCancelInterruptsFaultDelay(t *testing.T) {
	defer leakCheck(t)()
	// A FaultDelay latency spike sleeps on the real backend; a cancel
	// landing inside the spike must abort it the same way as a backoff
	// (same generous bound split as the backoff test above).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Backend: BackendReal, Cores: 2, PipelineDepth: 3,
		Faults: &SeededFaults{From: 2, Task: "dbl", Kind: FaultDelay, Delay: 10 * time.Second},
	}
	app, err := NewApp(chainProg(), testRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	rep, err := app.RunContext(ctx, 50)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeCancelled {
		t.Fatalf("outcome = %q, want cancelled", rep.Outcome)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run took %v; the 10s delay spike was not interrupted", elapsed)
	}
}

func TestRunContextReuseAfterRun(t *testing.T) {
	// An App is single-shot; a second RunContext must fail the same way
	// a second Run does, not deadlock or re-enter the engine.
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RunContext(context.Background(), 5); err == nil {
		t.Fatal("second RunContext succeeded, want error")
	}
}
