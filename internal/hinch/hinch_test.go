package hinch

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xspcl/internal/graph"
)

// ---- test components ----------------------------------------------------

// intSource emits its iteration number (payload int) and optionally an
// event stream; EOS after `frames` when set.
type intSource struct {
	frames int
	cost   int64
}

func (c *intSource) Init(ic *InitContext) error {
	var err error
	c.frames, err = ic.IntParam("frames", 0)
	if err != nil {
		return err
	}
	n, err := ic.IntParam("cost", 100)
	c.cost = int64(n)
	return err
}

func (c *intSource) Run(rc *RunContext) error {
	if c.frames > 0 && rc.Iteration() >= c.frames {
		return EOS
	}
	rc.SetOut("out", rc.Iteration())
	rc.Charge(c.cost)
	return nil
}

// doubler multiplies the int payload by 2. Registered stateless: Run
// reads only Init-time fields, so concurrent replicas are safe. The
// spin param burns real CPU on the real backend (Charge is a sim-only
// accounting call), giving the autotuner a genuine bottleneck to widen.
type doubler struct{ cost, spin int64 }

func (c *doubler) Init(ic *InitContext) error {
	n, err := ic.IntParam("cost", 100)
	if err != nil {
		return err
	}
	c.cost = int64(n)
	s, err := ic.IntParam("spin", 0)
	c.spin = int64(s)
	return err
}

func (c *doubler) Run(rc *RunContext) error {
	v, ok := rc.In("in").(int)
	if !ok {
		return fmt.Errorf("doubler: payload %T", rc.In("in"))
	}
	rc.SetOut("out", 2*v+spinWork(c.spin))
	rc.Charge(c.cost)
	return nil
}

// spinWork burns roughly n iterations of integer arithmetic and returns
// zero; the loop-carried dependency and the fed-back result keep the
// compiler from discarding the loop.
func spinWork(n int64) int {
	h := uint64(n) | 1
	for i := int64(0); i < n; i++ {
		h = h*1664525 + 1013904223
	}
	return int(h >> 32 >> 32)
}

// adder adds a constant (param add) to the payload; used inside options
// so the sink can tell which configuration processed an iteration.
type adder struct{ add int }

func (c *adder) Init(ic *InitContext) error {
	var err error
	c.add, err = ic.IntParam("add", 1000)
	return err
}

func (c *adder) Run(rc *RunContext) error {
	v, _ := rc.In("in").(int)
	rc.SetOut("out", v+c.add)
	rc.Charge(50)
	return nil
}

// intSink records payloads in iteration order.
type intSink struct {
	mu   sync.Mutex
	got  []int
	cost int64
}

func (c *intSink) Init(ic *InitContext) error {
	n, err := ic.IntParam("cost", 100)
	c.cost = int64(n)
	return err
}

func (c *intSink) Run(rc *RunContext) error {
	v, _ := rc.In("in").(int)
	c.mu.Lock()
	c.got = append(c.got, v)
	c.mu.Unlock()
	rc.Charge(c.cost)
	return nil
}

func (c *intSink) values() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.got...)
}

// sliceMarker sets bit (1 << slice) on a shared bitmap payload.
type sliceMarker struct{ slice, n int }

func (c *sliceMarker) Init(ic *InitContext) error {
	c.slice, c.n = ic.Slice(), ic.NSlices()
	return nil
}

func (c *sliceMarker) Run(rc *RunContext) error {
	bm, ok := rc.In("in").(*[64]int)
	if !ok {
		return fmt.Errorf("sliceMarker: payload %T", rc.In("in"))
	}
	bm[c.slice] = c.n
	// One designated writer forwards the payload; sibling slices of the
	// same iteration run concurrently on the real backend (see SetOut).
	if c.slice == 0 {
		rc.SetOut("out", bm)
	}
	rc.Charge(10)
	return nil
}

// bitmapSource emits a fresh bitmap each iteration.
type bitmapSource struct{}

func (c *bitmapSource) Init(ic *InitContext) error { return nil }
func (c *bitmapSource) Run(rc *RunContext) error {
	rc.SetOut("out", &[64]int{})
	rc.Charge(10)
	return nil
}

// bitmapSink verifies every expected slice marked.
type bitmapSink struct {
	expect int
	mu     sync.Mutex
	bad    int
	seen   int
}

func (c *bitmapSink) Init(ic *InitContext) error {
	var err error
	c.expect, err = ic.RequireInt("expect")
	return err
}

func (c *bitmapSink) Run(rc *RunContext) error {
	bm, _ := rc.In("in").(*[64]int)
	c.mu.Lock()
	c.seen++
	for i := 0; i < c.expect; i++ {
		if bm[i] != c.expect {
			c.bad++
		}
	}
	c.mu.Unlock()
	rc.Charge(10)
	return nil
}

// emitter sends an event on configured iterations.
type emitter struct {
	queue, event string
	every        int
}

func (c *emitter) Init(ic *InitContext) error {
	c.queue = ic.StringParam("queue", "")
	c.event = ic.StringParam("event", "")
	var err error
	c.every, err = ic.IntParam("every", 0)
	return err
}

func (c *emitter) Run(rc *RunContext) error {
	rc.Charge(10)
	if c.every > 0 && rc.Iteration() > 0 && rc.Iteration()%c.every == 0 {
		return rc.Emit(c.queue, Event{Name: c.event, Arg: fmt.Sprint(rc.Iteration())})
	}
	return nil
}

// failer errors on a configured iteration.
type failer struct{ at int }

func (c *failer) Init(ic *InitContext) error {
	var err error
	c.at, err = ic.IntParam("at", -1)
	return err
}

func (c *failer) Run(rc *RunContext) error {
	rc.Charge(10)
	if rc.Iteration() == c.at {
		return fmt.Errorf("deliberate failure")
	}
	v, _ := rc.In("in").(int)
	rc.SetOut("out", v)
	return nil
}

// reconfigurable records requests it receives.
type reconfigurable struct {
	mu   sync.Mutex
	reqs []string
}

func (c *reconfigurable) Init(ic *InitContext) error { return nil }
func (c *reconfigurable) Run(rc *RunContext) error {
	v, _ := rc.In("in").(int)
	rc.SetOut("out", v)
	rc.Charge(10)
	return nil
}
func (c *reconfigurable) Reconfigure(req string) error {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	return nil
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register("intsrc", ClassSpec{New: func() Component { return &intSource{} }, Out: []string{"out"}})
	r.Register("double", ClassSpec{New: func() Component { return &doubler{} }, In: []string{"in"}, Out: []string{"out"}, Stateless: true})
	r.Register("adder", ClassSpec{New: func() Component { return &adder{} }, In: []string{"in"}, Out: []string{"out"}})
	r.Register("intsink", ClassSpec{New: func() Component { return &intSink{} }, In: []string{"in"}})
	r.Register("bmsrc", ClassSpec{New: func() Component { return &bitmapSource{} }, Out: []string{"out"}})
	r.Register("marker", ClassSpec{New: func() Component { return &sliceMarker{} }, In: []string{"in"}, Out: []string{"out"}})
	r.Register("bmsink", ClassSpec{New: func() Component { return &bitmapSink{} }, In: []string{"in"}})
	r.Register("emitter", ClassSpec{New: func() Component { return &emitter{} }})
	r.Register("failer", ClassSpec{New: func() Component { return &failer{} }, In: []string{"in"}, Out: []string{"out"}})
	r.Register("reconf", ClassSpec{New: func() Component { return &reconfigurable{} }, In: []string{"in"}, Out: []string{"out"}})
	return r
}

// chainProg builds src -> double -> sink on untyped streams.
func chainProg() *graph.Program {
	b := graph.NewBuilder("chain")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, nil),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	return b.MustProgram()
}

func runApp(t *testing.T, prog *graph.Program, cfg Config, iters int) (*App, *Report) {
	t.Helper()
	app, err := NewApp(prog, testRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return app, rep
}

// ---- tests ---------------------------------------------------------------

func TestChainSimProducesOrderedResults(t *testing.T) {
	app, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 2}, 10)
	sink := app.Component("snk").(*intSink)
	vals := sink.values()
	if len(vals) != 10 {
		t.Fatalf("sink saw %d values", len(vals))
	}
	for i, v := range vals {
		if v != 2*i {
			t.Fatalf("value %d = %d, want %d", i, v, 2*i)
		}
	}
	if rep.Iterations != 10 {
		t.Fatalf("iterations %d", rep.Iterations)
	}
	if rep.Cycles <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.Jobs != 30 {
		t.Fatalf("jobs %d, want 30", rep.Jobs)
	}
}

func TestChainRealProducesOrderedResults(t *testing.T) {
	app, rep := runApp(t, chainProg(), Config{Backend: BackendReal, Cores: 4, EagerWorkers: true}, 50)
	sink := app.Component("snk").(*intSink)
	vals := sink.values()
	if len(vals) != 50 {
		t.Fatalf("sink saw %d values", len(vals))
	}
	for i, v := range vals {
		if v != 2*i {
			t.Fatalf("value %d = %d (out of order?)", i, v)
		}
	}
	if rep.Wall <= 0 {
		t.Fatal("no wall time measured")
	}
}

func TestSimDeterminism(t *testing.T) {
	_, r1 := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 3}, 20)
	_, r2 := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 3}, 20)
	if r1.Cycles != r2.Cycles || r1.Jobs != r2.Jobs {
		t.Fatalf("sim not deterministic: %d/%d vs %d/%d cycles/jobs", r1.Cycles, r1.Jobs, r2.Cycles, r2.Jobs)
	}
}

func TestPipelineParallelismOverlapsIterations(t *testing.T) {
	// A 3-stage chain of equal-cost jobs on 3 cores with pipeline depth
	// 3 must approach 1 job-time per iteration; with depth 1 it costs 3
	// job-times per iteration.
	deep, shallow := Config{Backend: BackendSim, Cores: 3, PipelineDepth: 3},
		Config{Backend: BackendSim, Cores: 3, PipelineDepth: 1}
	_, rDeep := runApp(t, chainProg(), deep, 30)
	_, rShallow := runApp(t, chainProg(), shallow, 30)
	if float64(rDeep.Cycles) > 0.55*float64(rShallow.Cycles) {
		t.Fatalf("pipelining ineffective: deep=%d shallow=%d", rDeep.Cycles, rShallow.Cycles)
	}
}

func TestMoreCoresFasterWithSlices(t *testing.T) {
	b := graph.NewBuilder("sliced")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "bmsrc", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeSlice, 8,
			b.Component("m", "marker", graph.Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "bmsink", graph.Ports{"in": "b"}, graph.Params{"expect": "8"}),
	)
	prog := b.MustProgram()
	_, r1 := runApp(t, prog, Config{Backend: BackendSim, Cores: 1}, 20)
	app8, r8 := runApp(t, prog, Config{Backend: BackendSim, Cores: 8}, 20)
	if r8.Cycles >= r1.Cycles {
		t.Fatalf("8 cores (%d cycles) not faster than 1 (%d)", r8.Cycles, r1.Cycles)
	}
	snk := app8.Component("snk").(*bmsinkAlias)
	_ = snk
}

// bmsinkAlias lets the test fetch the concrete sink type.
type bmsinkAlias = bitmapSink

func TestAllSlicesExecute(t *testing.T) {
	b := graph.NewBuilder("sliced")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "bmsrc", graph.Ports{"out": "a"}, nil),
		b.Parallel(graph.ShapeSlice, 6,
			b.Component("m", "marker", graph.Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "bmsink", graph.Ports{"in": "b"}, graph.Params{"expect": "6"}),
	)
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, _ := runApp(t, b.MustProgram(), Config{Backend: backend, Cores: 3}, 15)
		snk := app.Component("snk").(*bitmapSink)
		if snk.seen != 15 || snk.bad != 0 {
			t.Fatalf("backend %d: seen=%d bad=%d", backend, snk.seen, snk.bad)
		}
	}
}

func TestEOSStopsRun(t *testing.T) {
	b := graph.NewBuilder("eos")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, graph.Params{"frames": "7"}),
		b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, nil),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, rep := runApp(t, b.MustProgram(), Config{Backend: backend, Cores: 2}, -1)
		if rep.Iterations != 7 {
			t.Fatalf("backend %d: iterations %d, want 7", backend, rep.Iterations)
		}
		sink := app.Component("snk").(*intSink)
		if len(sink.values()) != 7 {
			t.Fatalf("backend %d: sink saw %d", backend, len(sink.values()))
		}
	}
}

func TestComponentErrorAborts(t *testing.T) {
	b := graph.NewBuilder("fail")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("f", "failer", graph.Ports{"in": "a", "out": "b"}, graph.Params{"at": "5"}),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, err := NewApp(b.MustProgram(), testRegistry(), Config{Backend: backend, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		_, err = app.Run(20)
		if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("backend %d: error = %v", backend, err)
		}
	}
}

// reconfigProg: src -> (manager: base adder + optional extra adder) -> sink,
// with an emitter toggling the option.
func reconfigProg(defaultOn bool, every int) *graph.Program {
	b := graph.NewBuilder("reconfig")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{
			"queue": "ui", "event": "flip", "every": fmt.Sprint(every)}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "extra")},
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
			b.Option("extra", defaultOn,
				b.Component("x", "adder", graph.Ports{"in": "b", "out": "b"}, graph.Params{"add": "1000"}),
			),
		),
		b.Component("dbl", "double", graph.Ports{"in": "b", "out": "c"}, graph.Params{"cost": "10"}),
		b.Component("snk", "intsink", graph.Ports{"in": "c"}, nil),
	)
	return b.MustProgram()
}

func TestReconfigurationTogglesOption(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, rep := runApp(t, reconfigProg(false, 10), Config{Backend: backend, Cores: 2, PipelineDepth: 3}, 60)
		if rep.Reconfigs < 2 {
			t.Fatalf("backend %d: only %d reconfigs", backend, rep.Reconfigs)
		}
		sink := app.Component("snk").(*intSink)
		vals := sink.values()
		if len(vals) != 60 {
			t.Fatalf("backend %d: %d values", backend, len(vals))
		}
		// Early iterations must be plain 2*i (option off); after the
		// first toggle some iterations must include +2000 (adder before
		// doubling).
		if vals[0] != 0 || vals[1] != 2 {
			t.Fatalf("backend %d: early values wrong: %v", backend, vals[:5])
		}
		boosted := 0
		for i, v := range vals {
			switch v {
			case 2 * i:
			case 2*i + 2000:
				boosted++
			default:
				t.Fatalf("backend %d: value %d = %d, want %d or %d", backend, i, v, 2*i, 2*i+2000)
			}
		}
		if boosted == 0 || boosted == len(vals) {
			t.Fatalf("backend %d: boosted=%d of %d — option never toggled", backend, boosted, len(vals))
		}
	}
}

func TestReconfigStallAccountedInSim(t *testing.T) {
	_, rep := runApp(t, reconfigProg(false, 10), Config{Backend: BackendSim, Cores: 2, PipelineDepth: 3}, 60)
	if rep.ReconfigStall <= 0 {
		t.Fatal("no reconfiguration stall recorded")
	}
	_, static := runApp(t, reconfigProg(false, 1000), Config{Backend: BackendSim, Cores: 2, PipelineDepth: 3}, 60)
	if rep.Cycles <= static.Cycles {
		t.Fatalf("reconfiguring run (%d) not slower than static (%d)", rep.Cycles, static.Cycles)
	}
}

func TestEnableDisableIgnoredWhenAlreadyInState(t *testing.T) {
	// Binding "flip" to Enable when already enabled must not reconfigure.
	b := graph.NewBuilder("noop")
	b.Stream("a").Stream("b")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "ui", "event": "flip", "every": "5"}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("flip", graph.ActionEnable, "opt")},
			b.Option("opt", true,
				b.Component("x", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "5"}),
			),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	_, rep := runApp(t, b.MustProgram(), Config{Backend: BackendSim, Cores: 2}, 30)
	if rep.Reconfigs != 0 {
		t.Fatalf("%d reconfigs for already-enabled option", rep.Reconfigs)
	}
}

func TestForwardAction(t *testing.T) {
	// Manager m1 forwards "flip" to queue q2; manager m2 toggles its
	// option on it.
	b := graph.NewBuilder("fwd")
	b.Stream("a").Stream("b")
	b.Queue("q1").Queue("q2")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "q1", "event": "flip", "every": "8"}),
		b.Manager("m1", "q1",
			[]graph.EventBinding{graph.On("flip", graph.ActionForward, "q2")},
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
		),
		b.Manager("m2", "q2",
			[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "opt")},
			b.Option("opt", false,
				b.Component("x", "adder", graph.Ports{"in": "b", "out": "b"}, graph.Params{"add": "7000"}),
			),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	_, rep := runApp(t, b.MustProgram(), Config{Backend: BackendSim, Cores: 2}, 40)
	if rep.Reconfigs == 0 {
		t.Fatal("forwarded event never caused a reconfiguration")
	}
}

func TestReconfigRequestDelivery(t *testing.T) {
	b := graph.NewBuilder("req")
	b.Stream("a").Stream("b")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "ui", "event": "move", "every": "6"}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("move", graph.ActionReconfig, "pos=1,2")},
			b.Component("rc", "reconf", graph.Ports{"in": "a", "out": "b"}, nil),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	app, rep := runApp(t, b.MustProgram(), Config{Backend: BackendSim, Cores: 2}, 30)
	if rep.Reconfigs != 0 {
		t.Fatalf("reconfig requests should not halt the graph, got %d reconfigs", rep.Reconfigs)
	}
	comp := app.Component("rc").(*reconfigurable)
	if len(comp.reqs) == 0 {
		t.Fatal("no reconfiguration requests delivered")
	}
	for _, r := range comp.reqs {
		if r != "pos=1,2" {
			t.Fatalf("bad request %q", r)
		}
	}
}

func TestInjectedEventFromOutside(t *testing.T) {
	// Events can also be pushed into a queue from outside the graph
	// (e.g. a UI thread).
	prog := reconfigProg(false, 100000)
	app, err := NewApp(prog, testRegistry(), Config{Backend: BackendReal, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	app.Queue("ui").Push(Event{Name: "flip"})
	rep, err := app.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs != 1 {
		t.Fatalf("%d reconfigs from injected event", rep.Reconfigs)
	}
	on := app.Options()["extra"]
	if !on {
		t.Fatal("option not enabled after injected toggle")
	}
}

func TestAppRunTwiceFails(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(3); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(3); err == nil {
		t.Fatal("second run accepted")
	}
}

func TestUnknownClassRejectedAtConstruction(t *testing.T) {
	b := graph.NewBuilder("bad")
	b.Stream("a")
	b.Body(b.Component("x", "nosuch", graph.Ports{"out": "a"}, nil))
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewApp(prog, testRegistry(), Config{Backend: BackendSim}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := testRegistry()
	if len(r.Classes()) != 10 {
		t.Fatalf("%d classes", len(r.Classes()))
	}
	in, out, err := r.ClassPorts("double")
	if err != nil || len(in) != 1 || len(out) != 1 {
		t.Fatalf("ClassPorts: %v %v %v", in, out, err)
	}
	if _, _, err := r.ClassPorts("nosuch"); err == nil {
		t.Fatal("unknown class resolved")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		r.Register("double", ClassSpec{New: func() Component { return &doubler{} }})
	}()
}

func TestEventQueueFIFO(t *testing.T) {
	q := NewEventQueue()
	for i := 0; i < 5; i++ {
		q.Push(Event{Name: fmt.Sprint(i)})
	}
	if q.Len() != 5 {
		t.Fatalf("len %d", q.Len())
	}
	evs := q.Drain()
	for i, ev := range evs {
		if ev.Name != fmt.Sprint(i) {
			t.Fatalf("order broken at %d: %s", i, ev.Name)
		}
	}
	if q.Drain() != nil || q.Len() != 0 {
		t.Fatal("drain not empty")
	}
}

func TestEOSIsErrorsIsCompatible(t *testing.T) {
	if !errors.Is(fmt.Errorf("wrap: %w", EOS), EOS) {
		t.Fatal("EOS does not support errors.Is through wrapping")
	}
}

func TestReportString(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 2}, 5)
	s := rep.String()
	if !strings.Contains(s, "iterations=5") || !strings.Contains(s, "cycles=") {
		t.Fatalf("report string: %s", s)
	}
	if rep.CyclesPerIteration() <= 0 {
		t.Fatal("cycles per iteration")
	}
	if u := rep.Utilisation(); u <= 0 || u > 1 {
		t.Fatalf("utilisation %f", u)
	}
}

func TestPerClassStats(t *testing.T) {
	_, rep := runApp(t, chainProg(), Config{Backend: BackendSim, Cores: 1}, 8)
	for _, class := range []string{"intsrc", "double", "intsink"} {
		cs, ok := rep.PerClass[class]
		if !ok || cs.Jobs != 8 || cs.Ops <= 0 {
			t.Fatalf("class %s stats %+v ok=%v", class, cs, ok)
		}
	}
}

func TestCrossIterationOrderingPerInstance(t *testing.T) {
	// The sink sees iterations in order even with many cores, because
	// each instance is serialised across iterations.
	app, _ := runApp(t, chainProg(), Config{Backend: BackendReal, Cores: 8, PipelineDepth: 8, EagerWorkers: true}, 200)
	vals := app.Component("snk").(*intSink).values()
	for i, v := range vals {
		if v != 2*i {
			t.Fatalf("iteration order violated at %d: %d", i, v)
		}
	}
}

func TestStreamBackpressureBoundsBuffers(t *testing.T) {
	// With StreamCapacity 2 the engine must never build more than 2
	// buffer sets, however deep the pipeline window is. (The sets built
	// number exactly the buffer high-water mark, bufHigh.)
	prog := chainProg()
	app, err := NewApp(prog, testRegistry(), Config{
		Backend: BackendSim, Cores: 4, PipelineDepth: 5, StreamCapacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(40); err != nil {
		t.Fatal(err)
	}
	if got := app.eng.bufHigh.Load(); got > 2 {
		t.Fatalf("engine built %d buffer sets", got)
	}
}

func TestStreamCapacityClampedToDepth(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{
		Backend: BackendSim, Cores: 2, PipelineDepth: 2, StreamCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := app.eng.bufHigh.Load(); got > 2 {
		t.Fatalf("capacity not clamped: %d buffer sets", got)
	}
}

func TestBufferPoolReusedAtOneCore(t *testing.T) {
	// One core, oldest-first scheduling: at most 2 iterations ever
	// overlap, so the engine should build ~2 buffer sets even with a
	// deep window and generous capacity.
	app, err := NewApp(chainProg(), testRegistry(), Config{
		Backend: BackendSim, Cores: 1, PipelineDepth: 5, StreamCapacity: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(30); err != nil {
		t.Fatal(err)
	}
	if got := app.eng.bufHigh.Load(); got > 2 {
		t.Fatalf("1-core run built %d buffer sets", got)
	}
}

func TestOptionTasksSkipWhenDisabled(t *testing.T) {
	// The superplan carries the option's tasks, but while disabled they
	// must not run the component (jobs metric counts only real runs).
	prog := reconfigProg(false, 100000) // never toggles
	app, err := NewApp(prog, testRegistry(), Config{Backend: BackendSim, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if cs, ok := rep.PerClass["adder"]; !ok || cs.Jobs != 10 {
		// Only the "base" adder runs; the optional "x" is skipped.
		t.Fatalf("adder jobs = %+v", rep.PerClass["adder"])
	}
	if app.Component("x") != nil {
		t.Fatal("disabled option's component was instantiated")
	}
}

func TestManagerGateHoldsLaterIterations(t *testing.T) {
	// During a reconfiguration the engine must not run any iteration's
	// subgraph beyond the gate until the splice: we verify post-hoc via
	// the option-enable boundary being clean (no interleaving of boosted
	// and unboosted values).
	app, rep := runApp(t, reconfigProg(false, 16), Config{Backend: BackendSim, Cores: 4, PipelineDepth: 5}, 64)
	if rep.Reconfigs < 2 {
		t.Fatalf("reconfigs %d", rep.Reconfigs)
	}
	vals := app.Component("snk").(*intSink).values()
	// Find state transitions; between transitions the state must be
	// constant (a clean iteration boundary per splice).
	transitions := 0
	for i := 1; i < len(vals); i++ {
		prevBoost := vals[i-1] != 2*(i-1)
		curBoost := vals[i] != 2*i
		if prevBoost != curBoost {
			transitions++
		}
	}
	if transitions != rep.Reconfigs {
		t.Fatalf("%d state transitions for %d reconfigs — splice not atomic at iteration boundary", transitions, rep.Reconfigs)
	}
}

func TestWorklessSkipsComponentWork(t *testing.T) {
	app, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 1, Workless: false})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	// Workless run must produce the same virtual time for this app
	// (costs are charged either way).
	app2, err := NewApp(chainProg(), testRegistry(), Config{Backend: BackendSim, Cores: 1, Workless: true})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := app2.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != rep2.Cycles {
		t.Fatalf("workless changed cycles: %d vs %d", rep.Cycles, rep2.Cycles)
	}
}

func TestLazyCreationChargesStall(t *testing.T) {
	run := func(lazy bool) *Report {
		app, err := NewApp(reconfigProg(false, 10), testRegistry(), Config{
			Backend: BackendSim, Cores: 2, LazyCreation: lazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	eager, lazy := run(false), run(true)
	if eager.Reconfigs == 0 || lazy.Reconfigs == 0 {
		t.Fatal("no reconfigurations happened")
	}
	if lazy.ReconfigStall <= eager.ReconfigStall {
		t.Fatalf("lazy creation should lengthen the quiescent stall: eager=%d lazy=%d",
			eager.ReconfigStall, lazy.ReconfigStall)
	}
}

func TestTwoIndependentManagers(t *testing.T) {
	// Two managers with their own queues and options must reconfigure
	// independently.
	b := graph.NewBuilder("twomgr")
	b.Stream("a").Stream("b").Stream("c")
	b.Queue("q1").Queue("q2")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("e1", "emitter", nil, graph.Params{"queue": "q1", "event": "f1", "every": "10"}),
		b.Component("e2", "emitter", nil, graph.Params{"queue": "q2", "event": "f2", "every": "15"}),
		b.Manager("m1", "q1",
			[]graph.EventBinding{graph.On("f1", graph.ActionToggle, "o1")},
			b.Component("base1", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
			b.Option("o1", false,
				b.Component("x1", "adder", graph.Ports{"in": "b", "out": "b"}, graph.Params{"add": "1000"}),
			),
		),
		b.Manager("m2", "q2",
			[]graph.EventBinding{graph.On("f2", graph.ActionToggle, "o2")},
			b.Component("base2", "adder", graph.Ports{"in": "b", "out": "c"}, graph.Params{"add": "0"}),
			b.Option("o2", false,
				b.Component("x2", "adder", graph.Ports{"in": "c", "out": "c"}, graph.Params{"add": "100000"}),
			),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "c"}, nil),
	)
	for _, backend := range []Backend{BackendSim, BackendReal} {
		app, rep := runApp(t, b.MustProgram(), Config{Backend: backend, Cores: 3}, 60)
		if rep.Reconfigs < 4 {
			t.Fatalf("backend %d: only %d reconfigs across two managers", backend, rep.Reconfigs)
		}
		vals := app.Component("snk").(*intSink).values()
		saw := map[int]bool{}
		for i, v := range vals {
			d := v - i
			if d != 0 && d != 1000 && d != 100000 && d != 101000 {
				t.Fatalf("backend %d: value %d has impossible boost %d", backend, i, d)
			}
			saw[d] = true
		}
		// Both options toggled at least once: at least three distinct
		// states appear over the run.
		if len(saw) < 3 {
			t.Fatalf("backend %d: option states seen: %v", backend, saw)
		}
	}
}

func TestNestedManagers(t *testing.T) {
	// An inner manager (with its own option) nested inside an outer
	// manager's subgraph; only the inner one toggles.
	b := graph.NewBuilder("nested")
	b.Stream("a").Stream("b")
	b.Queue("outer").Queue("inner")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, nil),
		b.Component("em", "emitter", nil, graph.Params{"queue": "inner", "event": "flip", "every": "8"}),
		b.Manager("mo", "outer", nil,
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
			b.Manager("mi", "inner",
				[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "oi")},
				b.Option("oi", false,
					b.Component("x", "adder", graph.Ports{"in": "b", "out": "b"}, graph.Params{"add": "500"}),
				),
			),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	app, rep := runApp(t, b.MustProgram(), Config{Backend: BackendSim, Cores: 2}, 40)
	if rep.Reconfigs < 2 {
		t.Fatalf("%d reconfigs", rep.Reconfigs)
	}
	vals := app.Component("snk").(*intSink).values()
	boosted := 0
	for i, v := range vals {
		switch v - i {
		case 0:
		case 500:
			boosted++
		default:
			t.Fatalf("value %d = %d", i, v)
		}
	}
	if boosted == 0 || boosted == len(vals) {
		t.Fatalf("inner option never toggled: %d/%d", boosted, len(vals))
	}
}

func TestEOSDuringReconfigurationDrains(t *testing.T) {
	// A source hitting EOS while a manager is halted must still drain
	// cleanly (no deadlock) and count only completed frames.
	b := graph.NewBuilder("eosreconf")
	b.Stream("a").Stream("b")
	b.Queue("ui")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, graph.Params{"frames": "22"}),
		b.Component("em", "emitter", nil, graph.Params{"queue": "ui", "event": "flip", "every": "20"}),
		b.Manager("m", "ui",
			[]graph.EventBinding{graph.On("flip", graph.ActionToggle, "opt")},
			b.Option("opt", false,
				b.Component("x", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "1"}),
			),
			b.Component("base", "adder", graph.Ports{"in": "a", "out": "b"}, graph.Params{"add": "0"}),
		),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	for _, backend := range []Backend{BackendSim, BackendReal} {
		_, rep := runApp(t, b.MustProgram(), Config{Backend: backend, Cores: 2}, -1)
		if rep.Iterations != 22 {
			t.Fatalf("backend %d: %d iterations", backend, rep.Iterations)
		}
	}
}
