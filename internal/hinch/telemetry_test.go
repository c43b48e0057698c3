package hinch

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"xspcl/internal/graph"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1 << 20} {
		h.record(v)
	}
	s := h.snap()
	if s.Count != 7 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max %d", s.Max)
	}
	if s.Sum != 0+1+2+3+100+1000+1<<20 {
		t.Fatalf("sum %d", s.Sum)
	}
	// Bucket 0 holds the zero, bucket 1 the value 1, bucket 2 values
	// 2..3, bucket 7 the 100, bucket 10 the 1000, bucket 21 the 1<<20.
	if got := s.Quantile(0.01); got != 0 {
		t.Fatalf("p1 = %d, want 0", got)
	}
	if got := s.Quantile(0.5); got != BucketBound(2) {
		t.Fatalf("p50 = %d, want %d", got, BucketBound(2))
	}
	// The top quantile is clamped to the observed max, not the bucket
	// bound.
	if got := s.Quantile(1.0); got != 1<<20 {
		t.Fatalf("p100 = %d, want %d", got, 1<<20)
	}
	if s.Mean() <= 0 {
		t.Fatalf("mean %v", s.Mean())
	}
	if BucketBound(0) != 0 || BucketBound(3) != 7 {
		t.Fatal("bucket bounds moved")
	}
}

func TestTelemetrySimDeterministic(t *testing.T) {
	run := func() ([]byte, *Report) {
		app, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 3, Telemetry: true}, 25)
		b, err := json.Marshal(app.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b, rep
	}
	s1, r1 := run()
	s2, r2 := run()
	if string(s1) != string(s2) {
		t.Fatalf("sim snapshots differ:\n%s\n%s", s1, s2)
	}
	if len(r1.Stages) == 0 || r1.IterLat == nil {
		t.Fatalf("report missing telemetry: %+v", r1)
	}
	j1, _ := json.Marshal(r1.Stages)
	j2, _ := json.Marshal(r2.Stages)
	if string(j1) != string(j2) {
		t.Fatalf("stage latencies differ:\n%s\n%s", j1, j2)
	}
	// Sim records every job, so the per-stage counts are exact: the
	// chain has 3 components over 25 iterations.
	var jobs int64
	for _, st := range r1.Stages {
		jobs += st.Jobs
	}
	if jobs != 75 {
		t.Fatalf("stage jobs sum %d, want 75", jobs)
	}
	if r1.IterLat.Jobs != 25 || r1.IterLat.Max <= 0 {
		t.Fatalf("iteration latency %+v", r1.IterLat)
	}
}

func TestTelemetryOffLeavesReportBare(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 2}, 10)
	if rep.Stages != nil || rep.IterLat != nil || rep.Stalls != 0 {
		t.Fatalf("telemetry fields set without Config.Telemetry: %+v", rep)
	}
}

func TestSnapshotBeforeRun(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	s := app.Snapshot()
	if !s.Telemetry || s.Backend != "sim" || s.Units != "cycles" {
		t.Fatalf("snapshot header %+v", s)
	}
	if len(s.Stages) != 3 || len(s.Streams) != 2 {
		t.Fatalf("structure: %d stages, %d streams", len(s.Stages), len(s.Streams))
	}
	if s.Launched != 0 || s.Jobs != 0 {
		t.Fatalf("pre-run counters %+v", s)
	}
}

func TestSnapshotLiveRealRun(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(),
		Config{Backend: BackendReal, Cores: 4, EagerWorkers: true, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var snaps int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := app.Snapshot()
			if s.Inflight < 0 {
				t.Errorf("negative inflight %d", s.Inflight)
				return
			}
			snaps++
		}
	}()
	rep, err := app.Run(400)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Fatal("no snapshots taken during the run")
	}
	final := app.Snapshot()
	if final.Retired != 400 || final.Inflight != 0 {
		t.Fatalf("final snapshot %+v", final)
	}
	if final.Jobs != rep.Jobs {
		t.Fatalf("snapshot jobs %d, report %d", final.Jobs, rep.Jobs)
	}
	if len(rep.Stages) == 0 {
		t.Fatal("real report has no stage latencies")
	}
}

// TestSnapshotEqualsReport: App.Snapshot and the Report read the same
// counter shards, so after Run they agree exactly — on both backends,
// with and without telemetry — including the fault-tolerance and (on
// real) scheduler counters.
func TestSnapshotEqualsReport(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		for _, telemetry := range []bool{false, true} {
			name := fmt.Sprintf("%s/telemetry=%v", map[Backend]string{BackendSim: "sim", BackendReal: "real"}[backend], telemetry)
			t.Run(name, func(t *testing.T) {
				b := graph.NewBuilder("flaky")
				b.Stream("a").Stream("b")
				b.Body(
					b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
					b.Component("flaky", "adder", graph.Ports{"in": "a", "out": "b"},
						graph.Params{"add": "1000", graph.OnErrorParam: "retry:2,base=10us"}),
					b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
				)
				app, err := NewApp(b.MustProgram(), testRegistry(), Config{
					Backend: backend, Cores: 4, EagerWorkers: true, Telemetry: telemetry,
					Faults: &firstAttemptInjector{task: "flaky"},
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := app.Run(60)
				if err != nil {
					t.Fatal(err)
				}
				s := app.Snapshot()
				if s.Jobs != rep.Jobs || s.Processed != int64(rep.Iterations) || s.Retired != s.Launched {
					t.Errorf("snapshot jobs=%d processed=%d retired=%d launched=%d, report jobs=%d iterations=%d",
						s.Jobs, s.Processed, s.Retired, s.Launched, rep.Jobs, rep.Iterations)
				}
				if rep.Faults == 0 || rep.Retries == 0 || s.Faults != rep.Faults || s.Retries != rep.Retries {
					t.Errorf("snapshot faults=%d retries=%d, report faults=%d retries=%d (want equal, non-zero)",
						s.Faults, s.Retries, rep.Faults, rep.Retries)
				}
				if backend == BackendReal {
					ss := rep.Sched
					if s.Steals != ss.Steals || s.StealTries != ss.StealAttempts || s.GlobalPops != ss.GlobalPops || s.Parks != ss.Parks {
						t.Errorf("snapshot steals=%d tries=%d global=%d parks=%d, report %+v",
							s.Steals, s.StealTries, s.GlobalPops, s.Parks, ss)
					}
				}
			})
		}
	}
}

// delayOnce injects one huge FaultDelay at a single (task, iteration),
// stalling the in-order retirement long enough for the watchdog to
// notice.
type delayOnce struct {
	task  string
	iter  int
	delay time.Duration
}

func (d *delayOnce) Inject(task string, iter, attempt int) Fault {
	if task == d.task && iter == d.iter && attempt == 0 {
		return Fault{Kind: FaultDelay, Delay: d.delay}
	}
	return Fault{}
}

func TestWatchdogStallSim(t *testing.T) {
	// A 10ms delay is 10M virtual cycles: the completion jump replays
	// ~100 missed watchdog epochs back-to-back, so the stall fires
	// deterministically after WatchdogEpochs of them.
	run := func() (*Report, *testTracer) {
		tr := &testTracer{}
		app, err := NewApp(chainProg(), testRegistry(), Config{
			Backend: BackendSim, Cores: 2, Telemetry: true, Tracer: tr,
			WatchdogCycles: 100_000, WatchdogEpochs: 3,
			Faults: &delayOnce{task: "dbl", iter: 5, delay: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr
	}
	rep, tr := run()
	if rep.Stalls != 1 {
		t.Fatalf("stalls = %d, want exactly 1", rep.Stalls)
	}
	stallEvents := 0
	for _, ev := range tr.events(0) {
		if ev.Kind == TraceStall {
			stallEvents++
			if ev.Arg < 3 {
				t.Fatalf("stall after %d epochs, want >= 3", ev.Arg)
			}
		}
	}
	if stallEvents != 1 {
		t.Fatalf("%d TraceStall events, want 1", stallEvents)
	}
	// The stall count is part of the deterministic sim schedule.
	rep2, _ := run()
	if rep2.Stalls != rep.Stalls || rep2.Cycles != rep.Cycles {
		t.Fatalf("stall detection not deterministic: %d/%d cycles %d/%d",
			rep.Stalls, rep2.Stalls, rep.Cycles, rep2.Cycles)
	}
}

func TestWatchdogNoFalsePositive(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{
		Backend: BackendSim, Cores: 2, Telemetry: true,
		WatchdogCycles: 50_000, WatchdogEpochs: 3,
	}, 40)
	if rep.Stalls != 0 {
		t.Fatalf("healthy run reported %d stalls", rep.Stalls)
	}
}

func TestWatchdogStallReal(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{
		Backend: BackendReal, Cores: 2, EagerWorkers: true, Telemetry: true,
		WatchdogWall: 2 * time.Millisecond, WatchdogEpochs: 2,
		Faults: &delayOnce{task: "dbl", iter: 3, delay: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Report, 1)
	go func() {
		rep, err := app.Run(8)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// The delayed job blocks in-order retirement for 150ms while the
	// watchdog ticks every 2ms: /healthz-visible stall state must
	// appear well before the delay elapses.
	sawStalled := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if app.Snapshot().Stalled {
			sawStalled = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep := <-done
	if !sawStalled {
		t.Fatal("never observed Stalled mid-run")
	}
	if rep == nil || rep.Stalls < 1 {
		t.Fatalf("report stalls %+v", rep)
	}
}

// testTracer is a minimal recording Tracer for shard-0 assertions.
type testTracer struct {
	mu  sync.Mutex
	evs map[int][]TraceEvent
}

func (tr *testTracer) Begin(TraceMeta) {}
func (tr *testTracer) End()            {}
func (tr *testTracer) Emit(shard int, ev TraceEvent) {
	tr.mu.Lock()
	if tr.evs == nil {
		tr.evs = map[int][]TraceEvent{}
	}
	tr.evs[shard] = append(tr.evs[shard], ev)
	tr.mu.Unlock()
}

func (tr *testTracer) events(shard int) []TraceEvent {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]TraceEvent(nil), tr.evs[shard]...)
}
