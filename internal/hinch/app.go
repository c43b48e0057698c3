package hinch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/graph"
	"xspcl/internal/spacecake"
)

// Backend selects how the job graph is executed.
type Backend int

// Execution backends.
const (
	// BackendSim executes on a deterministic discrete-event simulation
	// of a SpaceCAKE tile with a virtual cycle clock. All paper
	// experiments use this backend.
	BackendSim Backend = iota
	// BackendReal executes on a pool of worker goroutines, measuring
	// host wall-clock time.
	BackendReal
)

// Config configures a run.
type Config struct {
	Backend Backend

	// Cores is the number of simulated cores (sim) or worker goroutines
	// (real). Defaults to 1.
	Cores int

	// PipelineDepth is the number of concurrently active iterations.
	// The paper schedules five (§4): "To exploit pipeline parallelism
	// ... five iterations are simultaneously scheduled." Defaults to 5.
	PipelineDepth int

	// StreamCapacity bounds how many iterations may hold stream buffers
	// at once — the FIFO depth of the streams ("typically implemented
	// using a FIFO queue", §1). Iterations beyond it wait for buffers
	// (backpressure), which keeps the memory footprint of deep
	// pipelines bounded. Defaults to 3; clamped to PipelineDepth.
	StreamCapacity int

	// Workless makes components skip their real kernel computation and
	// only perform cost accounting, for fast simulation sweeps. Output
	// data is then meaningless; checksum-comparing tests must not set it.
	Workless bool

	// PinWorkers binds each real-backend worker goroutine to its own OS
	// thread and, on Linux, sets that thread's CPU affinity to core
	// (worker id mod NumCPU). Steal-victim scanning then prefers
	// near-id workers, so work migrates between adjacent cores first.
	// Best effort: on other platforms only the thread binding applies.
	// Ignored by BackendSim.
	PinWorkers bool

	// EagerWorkers starts every real-backend worker goroutine up front.
	// By default workers beyond worker 0 are brought online on demand
	// and never beyond the host's usable parallelism
	// (min(NumCPU, GOMAXPROCS)) — oversubscribing dispatch workers only
	// adds thread churn — so a run on a small host may never exercise
	// true cross-worker concurrency. Concurrency-sensitive tests set
	// this to force all Cores workers into play. Implied by PinWorkers
	// and by TestHooks. Ignored by BackendSim.
	EagerWorkers bool

	// Tile overrides the simulated tile configuration. When nil,
	// spacecake.DefaultConfig(Cores) is used. Ignored by BackendReal.
	Tile *spacecake.Config

	// ReconfigBaseCycles and ReconfigPerTaskCycles are charged as a
	// global stall when a quiescent reconfiguration is applied: the
	// cost of splicing the option subgraph in or out and synchronising
	// the new components with the contained subgraph (§3.4). Component
	// creation itself is charged earlier, overlapped with execution,
	// because options are pre-created as soon as the event is detected.
	ReconfigBaseCycles    int64
	ReconfigPerTaskCycles int64

	// CreateOpsPerComponent is the compute charged (overlapped) to the
	// manager job that pre-creates an option's components.
	CreateOpsPerComponent int64

	// LazyCreation disables the paper's eager pre-creation of option
	// components at event detection (§3.4): components are then created
	// inside the quiescent window and their creation cost is added to
	// the reconfiguration stall. Exists for the ablation benchmark; the
	// paper's design (eager) is the default.
	LazyCreation bool

	// Hooks injects test-only scheduler instrumentation (yield points
	// at dispatch boundaries, steal-victim reseeding) for schedule
	// exploration; see TestHooks. Nil in production.
	Hooks TestHooks

	// Tracer receives span and counter events while the run executes
	// (job lifecycle, stream occupancy, scheduler actions,
	// reconfiguration phases); see Tracer and internal/hinch/trace.
	// Nil disables tracing at the cost of one branch per boundary.
	Tracer Tracer

	// Faults injects deterministic errors, panics and latency spikes at
	// component boundaries for fault-tolerance testing; see
	// FaultInjector. Nil in production — the fault-free path pays one
	// branch per component dispatch.
	Faults FaultInjector

	// Autotune enables the feedback autotuner: at fixed epochs the
	// runtime samples its occupancy and backpressure counters and
	// resizes the replica widths of components declared
	// replicate="auto" and the live stream-FIFO capacity. Without it,
	// auto widths stay at 1. Decisions land in Report.Tune/TuneLog and
	// the trace (TraceTune).
	Autotune bool

	// TuneEpochCycles is the autotuner's epoch length on the sim
	// backend, in virtual cycles; decisions fire at virtual-time
	// boundaries, so the decision trace is deterministic. Defaults to
	// 50000.
	TuneEpochCycles int64

	// TuneEpochWall is the autotuner's epoch length on the real
	// backend. Defaults to 2ms.
	TuneEpochWall time.Duration

	// MaxReplicaWidth caps every auto replica width. 0 means bounded
	// only by PipelineDepth, Cores and the prediction model.
	MaxReplicaWidth int

	// Telemetry enables the live-metrics subsystem: per-stage service
	// time, iteration latency, stream occupancy and scheduler histograms
	// (see telemetry.go) plus the stalled-progress watchdog, all
	// scrapeable mid-run through App.Snapshot and internal/obs. Off, the
	// hot path pays one nil check per boundary, same as Tracer/Hooks.
	Telemetry bool

	// WatchdogEpochs is how many consecutive watchdog epochs may pass
	// without an iteration retiring before the run is flagged stalled
	// (Snapshot.Stalled, /healthz degraded, a TraceStall instant). The
	// flag clears when progress resumes. Defaults to 3. Requires
	// Telemetry.
	WatchdogEpochs int

	// WatchdogCycles is the watchdog epoch length on the sim backend, in
	// virtual cycles; checks fire at virtual-time boundaries, so stall
	// detection is deterministic. Defaults to 2000000.
	WatchdogCycles int64

	// WatchdogWall is the watchdog epoch length on the real backend.
	// Defaults to 250ms.
	WatchdogWall time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 5
	}
	if c.StreamCapacity <= 0 {
		c.StreamCapacity = 3
	}
	if c.StreamCapacity > c.PipelineDepth {
		c.StreamCapacity = c.PipelineDepth
	}
	if c.ReconfigBaseCycles == 0 {
		c.ReconfigBaseCycles = 20000
	}
	if c.ReconfigPerTaskCycles == 0 {
		c.ReconfigPerTaskCycles = 800
	}
	if c.CreateOpsPerComponent == 0 {
		c.CreateOpsPerComponent = 4000
	}
	if c.TuneEpochCycles <= 0 {
		c.TuneEpochCycles = 50000
	}
	if c.TuneEpochWall <= 0 {
		c.TuneEpochWall = 2 * time.Millisecond
	}
	if c.WatchdogEpochs <= 0 {
		c.WatchdogEpochs = 3
	}
	if c.WatchdogCycles <= 0 {
		c.WatchdogCycles = 2000000
	}
	if c.WatchdogWall <= 0 {
		c.WatchdogWall = 250 * time.Millisecond
	}
	return c
}

// instance is one live component instance.
type instance struct {
	name  string
	comp  Component
	recon Reconfigurable // comp's reconfiguration interface, or nil

	hasMail atomic.Bool // lock-free fast-path probe for an empty mailbox
	mu      sync.Mutex
	mailbox []string // pending reconfiguration requests
}

// deliver queues a reconfiguration request for the instance.
func (in *instance) deliver(req string) {
	in.mu.Lock()
	in.mailbox = append(in.mailbox, req)
	in.hasMail.Store(true)
	in.mu.Unlock()
}

// takeMail drains pending requests. The atomic probe keeps the per-job
// cost of an empty mailbox to one load.
func (in *instance) takeMail() []string {
	if !in.hasMail.Load() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	m := in.mailbox
	in.mailbox = nil
	in.hasMail.Store(false)
	return m
}

// App is a loaded XSPCL application: the elaborated program bound to
// component instances, streams, event queues and a backend. Build one
// with NewApp and execute it once with Run.
type App struct {
	prog *graph.Program
	reg  *Registry
	cfg  Config

	streams    map[string]*Stream
	streamList []*Stream // declaration order, for deterministic allocation
	queues     map[string]*EventQueue
	queueNames []string       // declaration order; TraceEvent.ID name table
	queueIndex map[string]int // queue name -> trace index
	managers   map[string]*graph.Node

	// eng is the engine of the (single) run, set by Run before
	// execution starts so RunContext.Emit can reach the tracer.
	eng *engine

	// instances is a copy-on-write map: reconfigurations (rare, under
	// the engine lock) replace the whole map, so the per-job instance
	// lookup on the hot path is a lock-free atomic load.
	instances atomic.Pointer[map[string]*instance]

	// instTab mirrors instances as a task-ID-indexed slice, rebuilt on
	// every instance-table change: the per-job resolve on the dispatch
	// hot path becomes an index load instead of a string-map lookup.
	instTab atomic.Pointer[[]*instance]

	// portBinds[taskID] lists the task's port→stream bindings, resolved
	// once at build time. Components bind a handful of ports, so the
	// per-access linear scan beats the two map lookups it replaces.
	portBinds [][]portBind

	options     map[string]bool   // currently applied option states
	optionOwner map[string]string // option name -> innermost enclosing manager
	plan        *graph.Plan       // the superplan (all options enabled)

	// solvedParams holds format-solver-inferred initialization
	// parameters, keyed by graph node name (slice copies share a node):
	// the contextual specialisation of generic components
	// (ClassSpec.Signature where-binds the spec omitted).
	solvedParams map[string]map[string]string

	addr *spacecake.AddressSpace // nil on the real backend
	tile *spacecake.Tile         // nil on the real backend

	metrics metrics
	ran     bool
}

// NewApp validates prog against the registry, builds the initial plan,
// allocates streams and event queues, and instantiates the components
// of the default configuration.
func NewApp(prog *graph.Program, reg *Registry, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if err := prog.Validate(reg); err != nil {
		return nil, err
	}
	// Reconcile stream formats against the component interface
	// signatures over the superplan view (all options enabled): an
	// unsolvable wiring is rejected at load time, and solved where-bind
	// parameters specialise generic components at Init.
	formats, err := graph.SolveFormats(prog, nil, reg)
	if err != nil {
		return nil, fmt.Errorf("hinch: %w", err)
	}
	if len(formats.Conflicts) > 0 {
		c := formats.Conflicts[0]
		msg := fmt.Sprintf("hinch: format mismatch")
		if c.Stream != "" {
			msg = fmt.Sprintf("hinch: format mismatch on stream %q", c.Stream)
		}
		msg += ": " + c.Detail
		for _, line := range c.Chain {
			msg += "\n\t" + line
		}
		return nil, fmt.Errorf("%s", msg)
	}
	a := &App{
		prog:         prog,
		reg:          reg,
		cfg:          cfg,
		streams:      map[string]*Stream{},
		queues:       map[string]*EventQueue{},
		managers:     map[string]*graph.Node{},
		options:      prog.Options(),
		optionOwner:  optionOwners(prog),
		solvedParams: formats.Params,
	}
	initial := map[string]*instance{}
	a.instances.Store(&initial)
	if cfg.Backend == BackendSim {
		a.addr = spacecake.NewAddressSpace()
		tcfg := spacecake.DefaultConfig(cfg.Cores)
		if cfg.Tile != nil {
			tcfg = *cfg.Tile
			tcfg.Cores = cfg.Cores
		}
		if err := tcfg.Validate(); err != nil {
			return nil, err
		}
		a.tile = spacecake.NewTile(tcfg)
	}
	for _, decl := range prog.Streams {
		s, err := newStream(decl, a.addr)
		if err != nil {
			return nil, err
		}
		s.idx = len(a.streamList)
		a.streams[decl.Name] = s
		a.streamList = append(a.streamList, s)
	}
	a.queueIndex = map[string]int{}
	for _, q := range prog.Queues {
		a.queues[q] = NewEventQueue()
		a.queueIndex[q] = len(a.queueNames)
		a.queueNames = append(a.queueNames, q)
	}
	for _, m := range prog.Managers() {
		a.managers[m.Name] = m
	}
	// The engine always executes the superplan — every option's tasks
	// are present, and disabled ones run as zero-cost no-ops — so a
	// reconfiguration never re-plans in-flight iterations.
	allOn := map[string]bool{}
	for name := range a.options {
		allOn[name] = true
	}
	plan, err := graph.BuildPlan(prog, allOn)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	a.plan = plan
	// Build the initial instance table in place (storeInstance would
	// copy the whole map once per component here).
	for _, t := range plan.ComponentTasks() {
		// Only instantiate components whose option is enabled; options
		// create their components when they are switched on.
		if t.Option != "" && !a.options[t.Option] {
			continue
		}
		inst, err := a.newInstance(t)
		if err != nil {
			return nil, err
		}
		if inst != nil {
			initial[t.Name] = inst
		}
	}
	a.rebuildInstTab()
	a.portBinds = make([][]portBind, len(plan.Tasks))
	for _, t := range plan.Tasks {
		binds := make([]portBind, 0, len(t.Ports))
		for port, streamName := range t.Ports {
			s, ok := a.streams[streamName]
			if !ok {
				return nil, fmt.Errorf("hinch: task %q port %q bound to unknown stream %q", t.Name, port, streamName)
			}
			binds = append(binds, portBind{port: port, s: s})
		}
		a.portBinds[t.ID] = binds
	}
	// The engine (and, on the real backend, the work-stealing scheduler
	// with its per-worker state) is built here rather than in Run, so
	// the dispatch path starts with its rings, free-lists and deques
	// already sized — Run's steady state allocates nothing for them.
	a.eng = newEngine(a)
	return a, nil
}

// portBind is one resolved port→stream binding of a task.
type portBind struct {
	port string
	s    *Stream
}

// rebuildInstTab republishes the task-ID-indexed instance table from
// the current instance map. Writers are serialised (NewApp is
// single-threaded; the engine mutates instances only under its lock).
func (a *App) rebuildInstTab() {
	m := *a.instances.Load()
	tab := make([]*instance, len(a.plan.Tasks))
	for _, t := range a.plan.Tasks {
		tab[t.ID] = m[t.Name]
	}
	a.instTab.Store(&tab)
}

// optionOwners maps each option to its innermost enclosing manager.
func optionOwners(prog *graph.Program) map[string]string {
	owners := map[string]string{}
	var walk func(n *graph.Node, mgr string)
	walk = func(n *graph.Node, mgr string) {
		if n == nil {
			return
		}
		switch n.Kind {
		case graph.KindManager:
			mgr = n.Name
		case graph.KindOption:
			owners[n.Name] = mgr
		}
		for _, c := range n.Children {
			walk(c, mgr)
		}
	}
	walk(prog.Root, "")
	return owners
}

// instance returns the live instance for a task name, or nil. Lock-free.
func (a *App) instance(name string) *instance {
	return (*a.instances.Load())[name]
}

// storeInstance publishes a new instance table containing in. Callers
// must serialise writers (NewApp is single-threaded; the engine writes
// only under its lock).
func (a *App) storeInstance(in *instance) {
	old := *a.instances.Load()
	m := make(map[string]*instance, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[in.name] = in
	a.instances.Store(&m)
	a.rebuildInstTab()
}

// removeInstance publishes a new instance table without name. Writers
// must be serialised, as for storeInstance.
func (a *App) removeInstance(name string) {
	old := *a.instances.Load()
	if _, ok := old[name]; !ok {
		return
	}
	m := make(map[string]*instance, len(old))
	for k, v := range old {
		if k != name {
			m[k] = v
		}
	}
	a.instances.Store(&m)
	a.rebuildInstTab()
}

// createInstance builds, initialises and publishes the component for a
// task.
func (a *App) createInstance(t *graph.Task) error {
	inst, err := a.newInstance(t)
	if err != nil {
		return err
	}
	if inst != nil {
		a.storeInstance(inst)
	}
	return nil
}

// newInstance builds and initialises the component for a task without
// publishing it; it returns nil when the instance already exists.
func (a *App) newInstance(t *graph.Task) (*instance, error) {
	if a.instance(t.Name) != nil {
		return nil, nil
	}
	spec, err := a.reg.Lookup(t.Class)
	if err != nil {
		return nil, fmt.Errorf("hinch: component %q: %w", t.Name, err)
	}
	comp := spec.New()
	ic := &InitContext{
		name:    t.Name,
		params:  t.Params,
		solved:  a.solvedParams[t.Node],
		slice:   t.Slice,
		nslices: t.NSlices,
		app:     a,
	}
	if err := comp.Init(ic); err != nil {
		return nil, fmt.Errorf("hinch: init %q: %w", t.Name, err)
	}
	inst := &instance{name: t.Name, comp: comp}
	inst.recon, _ = comp.(Reconfigurable)
	if req, ok := t.Params[graph.ReconfigParam]; ok {
		// The <reconfig> tag: an initial reconfiguration request,
		// applied before the instance's first Run.
		if inst.recon == nil {
			return nil, fmt.Errorf("hinch: component %q has an initial reconfiguration request but class %q has no reconfiguration interface", t.Name, t.Class)
		}
		inst.deliver(req)
	}
	return inst, nil
}

// Component returns a live component instance by name (e.g. to read a
// sink's collected output after Run), or nil if absent.
func (a *App) Component(name string) Component {
	in := a.instance(name)
	if in == nil {
		return nil
	}
	return in.comp
}

// Queue returns a declared event queue by name (e.g. to inject user
// events from outside the graph), or nil if absent.
func (a *App) Queue(name string) *EventQueue { return a.queues[name] }

// Stream returns a declared stream by name (for inspection: buffer
// pool growth, element description), or nil if absent.
func (a *App) Stream(name string) *Stream { return a.streams[name] }

// Options returns the current option states.
func (a *App) Options() map[string]bool {
	out := make(map[string]bool, len(a.options))
	for k, v := range a.options {
		out[k] = v
	}
	return out
}

// Plan returns the superplan: the task DAG with every option's tasks
// present (disabled options execute as no-ops).
func (a *App) Plan() *graph.Plan { return a.plan }

// Program returns the application's program.
func (a *App) Program() *graph.Program { return a.prog }

// Tile returns the simulated tile (nil on the real backend).
func (a *App) Tile() *spacecake.Tile { return a.tile }

// Run executes the application for the given number of iterations
// (frames). If iterations <= 0, the application runs until a source
// component returns EOS. An App can only be run once.
func (a *App) Run(iterations int) (*Report, error) {
	return a.RunContext(context.Background(), iterations)
}

// RunContext executes like Run, additionally honouring ctx: when it is
// cancelled (or its deadline passes), the run stops launching
// iterations, cancels every in-flight one, drains the pipeline through
// the normal retirement path — stream buffers and iteration state
// return to their pools, workers join, nothing leaks — and returns the
// partial Report with Outcome = OutcomeCancelled and a nil error.
// Cancellation is cooperative: the sim backend observes it at one fixed
// point per event-loop turn (a virtual-cycle boundary, so a cancel
// raised from inside the simulation is fully deterministic), the real
// backend through its control goroutine, joined before RunContext returns,
// plus the interruptible retry-backoff and injected-delay sleeps.
func (a *App) RunContext(ctx context.Context, iterations int) (*Report, error) {
	if a.ran {
		return nil, fmt.Errorf("hinch: app already ran")
	}
	a.ran = true
	if iterations <= 0 {
		iterations = -1
	}
	e := a.eng
	e.limit = iterations
	if ctx != nil {
		e.ctxDone = ctx.Done()
	}
	var rep *Report
	var err error
	switch a.cfg.Backend {
	case BackendSim:
		rep, err = e.runSim()
	case BackendReal:
		rep, err = e.runReal()
	default:
		return nil, fmt.Errorf("hinch: unknown backend %d", a.cfg.Backend)
	}
	// The run is over: dissolve the stream buffers back into the global
	// frame free-list, so the next App (a fresh run, a benchmark
	// iteration) reuses them instead of allocating.
	e.drainFrames()
	return rep, err
}
