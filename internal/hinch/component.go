// Package hinch is the run-time system of the reproduction: it executes
// an elaborated XSPCL program (a graph.Program) in data-flow style with
// automatic load balancing, pipeline parallelism across iterations,
// streaming and event communication, and dynamic reconfiguration
// through managers — the feature set of the paper's Hinch runtime
// (Nijhuis et al., Euro-Par'06, used by the ICPP'07 paper).
//
// Two interchangeable backends execute the job graph:
//
//   - BackendSim: a deterministic discrete-event simulation on a
//     spacecake.Tile with a virtual cycle clock, dispatching from a
//     central job queue. All paper experiments run on this backend.
//   - BackendReal: a pool of worker goroutines with per-worker
//     work-stealing deques, measuring wall-clock time on the host.
//
// Components always perform their real pixel/bitstream work unless
// Config.Workless is set; cost accounting for the simulator happens
// through the RunContext (Charge/Access) as they run.
package hinch

import (
	"fmt"
	"strconv"

	"xspcl/internal/format"
	"xspcl/internal/graph"
	"xspcl/internal/spacecake"
)

// Component is one node of the streaming application. A component is
// initialised once (per instance — data-parallel slice copies are
// separate instances) and then run once per iteration of the task
// graph, reading its input ports and writing its output ports.
//
// Components run to completion and must not block on other components;
// the scheduler guarantees their inputs are ready before Run is called
// (the XSPCL design's deadlock-freedom argument, paper §3.1).
type Component interface {
	// Init configures the instance from its initialization parameters.
	Init(ic *InitContext) error
	// Run executes one iteration.
	Run(rc *RunContext) error
}

// Reconfigurable is implemented by components that accept
// reconfiguration requests at runtime (paper §3.1: "a component may
// have a reconfiguration interface at which it listens for
// reconfiguration requests", e.g. a blender supporting repositioning).
// Requests are delivered before the next Run of the instance.
type Reconfigurable interface {
	Reconfigure(request string) error
}

// EOS is returned by a source component's Run when its stream is
// exhausted; the engine then stops launching new iterations and drains
// the pipeline. Iterations at or beyond the one that hit EOS are not
// counted as processed.
var EOS = fmt.Errorf("hinch: end of stream")

// ClassSpec declares a component class for the registry: its factory
// and its port signature.
type ClassSpec struct {
	// New creates an uninitialised instance.
	New func() Component
	// In and Out list the class's input and output port names. Every
	// port must be connected to a stream in the application graph.
	In, Out []string
	// Doc is a one-line description shown by tooling.
	Doc string
	// Stateless declares that Run touches only per-iteration stream
	// payloads and read-only configuration, so one instance may execute
	// several iterations concurrently. Only stateless classes accept
	// the replicate= attribute; validation rejects it elsewhere.
	Stateless bool
	// Signature is the class's parametric interface signature over
	// stream format terms, in the internal/format grammar (e.g.
	// "in: L(W,H); out: L(W/K,H/K); where K=factor"). Empty means the
	// class places no format constraints. The formats analyzer pass and
	// hinch.NewApp solve all signatures of an application against its
	// stream declarations; where-bound parameters the spec omits are
	// injected with their solved values at Init, specialising generic
	// components per context.
	Signature string
}

// Registry maps class names to component implementations. It
// implements graph.Catalog so program validation can resolve port
// directions.
type Registry struct {
	classes map[string]ClassSpec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{classes: map[string]ClassSpec{}} }

// Register adds a class. It panics on duplicates or a nil factory:
// registration happens at program start-up with static names.
func (r *Registry) Register(class string, spec ClassSpec) {
	if class == "" || spec.New == nil {
		panic("hinch: invalid class registration")
	}
	if _, dup := r.classes[class]; dup {
		panic(fmt.Sprintf("hinch: class %q registered twice", class))
	}
	if spec.Signature != "" {
		sig, err := format.ParseSignature(spec.Signature)
		if err != nil {
			panic(fmt.Sprintf("hinch: class %q: %v", class, err))
		}
		ports := map[string]bool{}
		for _, p := range spec.In {
			ports[p] = true
		}
		for _, p := range spec.Out {
			ports[p] = true
		}
		for _, pf := range sig.Ports {
			if !ports[pf.Port] {
				panic(fmt.Sprintf("hinch: class %q: signature names port %q the class does not declare", class, pf.Port))
			}
		}
	}
	r.classes[class] = spec
}

// Lookup returns the spec for class.
func (r *Registry) Lookup(class string) (ClassSpec, error) {
	spec, ok := r.classes[class]
	if !ok {
		return ClassSpec{}, fmt.Errorf("hinch: unknown component class %q", class)
	}
	return spec, nil
}

// Classes returns the registered class names (unordered).
func (r *Registry) Classes() []string {
	out := make([]string, 0, len(r.classes))
	for c := range r.classes {
		out = append(out, c)
	}
	return out
}

// ClassPorts implements graph.Catalog.
func (r *Registry) ClassPorts(class string) (in, out []string, err error) {
	spec, err := r.Lookup(class)
	if err != nil {
		return nil, nil, err
	}
	return spec.In, spec.Out, nil
}

// ClassStateless implements graph.StatelessCatalog: it reports whether
// the class was registered with Stateless set. Unknown classes report
// false.
func (r *Registry) ClassStateless(class string) bool {
	return r.classes[class].Stateless
}

// ClassSignature implements graph.SignatureCatalog: it returns the
// class's registered interface signature ("" when unconstrained or
// unknown).
func (r *Registry) ClassSignature(class string) string {
	return r.classes[class].Signature
}

// InitContext is handed to Component.Init. It exposes the instance's
// parameters, its data-parallel position, and simulator facilities.
type InitContext struct {
	name    string
	params  map[string]string
	solved  map[string]string // format-solver-inferred params (fallback)
	slice   int
	nslices int
	app     *App
}

// lookup resolves a parameter: explicit spec parameters win, then the
// values the format solver inferred for this component (generic
// components specialised by their context; see ClassSpec.Signature).
func (ic *InitContext) lookup(name string) (string, bool) {
	if v, ok := ic.params[name]; ok {
		return v, true
	}
	v, ok := ic.solved[name]
	return v, ok
}

// Name returns the unique instance name.
func (ic *InitContext) Name() string { return ic.name }

// Slice returns this instance's index within its data-parallel group
// (0 when not replicated). The paper delivers this through the
// reconfiguration interface; here it is part of initialisation.
func (ic *InitContext) Slice() int { return ic.slice }

// NSlices returns the data-parallel group size (1 when not replicated).
func (ic *InitContext) NSlices() int { return ic.nslices }

// Param returns the raw value of an initialization parameter and
// whether it was supplied (explicitly or by the format solver).
func (ic *InitContext) Param(name string) (string, bool) {
	return ic.lookup(name)
}

// StringParam returns a string parameter or def when absent.
func (ic *InitContext) StringParam(name, def string) string {
	if v, ok := ic.lookup(name); ok {
		return v
	}
	return def
}

// IntParam returns an integer parameter or def when absent. It fails
// on a malformed value.
func (ic *InitContext) IntParam(name string, def int) (int, error) {
	v, ok := ic.lookup(name)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("hinch: %s: parameter %s=%q is not an integer", ic.name, name, v)
	}
	return n, nil
}

// RequireInt returns an integer parameter, failing when absent.
func (ic *InitContext) RequireInt(name string) (int, error) {
	if _, ok := ic.lookup(name); !ok {
		return 0, fmt.Errorf("hinch: %s: missing required parameter %q", ic.name, name)
	}
	return ic.IntParam(name, 0)
}

// Uint64Param returns a uint64 parameter or def when absent.
func (ic *InitContext) Uint64Param(name string, def uint64) (uint64, error) {
	v, ok := ic.lookup(name)
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("hinch: %s: parameter %s=%q is not a uint64", ic.name, name, v)
	}
	return n, nil
}

// AllocRegion reserves a simulated address region for instance-owned
// data (e.g. a source's encoded input buffer). On the real backend it
// returns a zero region; cost accounting is inert there.
func (ic *InitContext) AllocRegion(bytes int64) spacecake.Region {
	if ic.app.addr == nil {
		return spacecake.Region{}
	}
	return ic.app.addr.Alloc(bytes)
}

// Workless reports whether kernels should skip their real computation
// (fast simulation sweeps; see Config.Workless).
func (ic *InitContext) Workless() bool { return ic.app.cfg.Workless }

// RunContext is handed to Component.Run for one iteration. It provides
// port access, event emission and simulator cost accounting. A
// RunContext is only valid for the duration of the Run call.
type RunContext struct {
	app      *App
	task     *graph.Task
	iter     int
	compute  int64              // accumulated ops
	access   []spacecake.Access // accumulated memory accesses (sim backend)
	streamed []spacecake.Region // accumulated streamed (DMA) transfers
	sim      bool
	shard    int     // tracer shard of the owning worker (0 on sim); not cleared by reset
	bufs     *bufSet // the iteration's stream buffers; nil if it holds none
}

// reset prepares rc for one job, keeping the accumulated slices'
// capacity so a worker can reuse one RunContext across jobs without
// reallocating.
func (rc *RunContext) reset(app *App, task *graph.Task, iter int, bufs *bufSet, sim bool) {
	rc.app = app
	rc.task = task
	rc.iter = iter
	rc.bufs = bufs
	rc.sim = sim
	rc.compute = 0
	rc.access = rc.access[:0]
	rc.streamed = rc.streamed[:0]
}

// Iteration returns the iteration (frame) number being processed.
func (rc *RunContext) Iteration() int { return rc.iter }

// Slice returns the instance's data-parallel index.
func (rc *RunContext) Slice() int { return rc.task.Slice }

// NSlices returns the data-parallel group size.
func (rc *RunContext) NSlices() int { return rc.task.NSlices }

// Workless reports whether kernels should skip real computation. Cost
// accounting (Charge/Access) must still be performed by the component.
func (rc *RunContext) Workless() bool { return rc.app.cfg.Workless }

// In returns the payload at the named input port for this iteration.
func (rc *RunContext) In(port string) any {
	return rc.slot(port).payload
}

// Out returns the payload buffer at the named output port (the
// pre-allocated stream slot element, e.g. a *media.Frame to fill).
func (rc *RunContext) Out(port string) any {
	return rc.slot(port).payload
}

// SetOut replaces the payload at the named output port, for streams
// whose elements are produced fresh each iteration (packets,
// coefficient frames). Slice copies of one iteration run concurrently
// on the real backend, so a data-parallel group must designate a single
// writer (or fill disjoint regions of the pre-allocated Out buffer
// instead).
func (rc *RunContext) SetOut(port string, payload any) {
	rc.slot(port).payload = payload
}

// PortRegion returns the simulated address region of the port's current
// stream slot. On the real backend it returns a zero region.
func (rc *RunContext) PortRegion(port string) spacecake.Region {
	return rc.slot(port).region
}

// slot resolves a port name through the task's precomputed bindings
// (see App.portBinds): a linear scan over the handful of ports a
// component has, replacing the two string-map lookups (ports, streams)
// the dispatch hot path used to pay per port access. The bound
// stream's index selects its slot in the iteration's buffer set.
//
//hinch:hotpath
func (rc *RunContext) slot(port string) *slot {
	binds := rc.app.portBinds[rc.task.ID]
	for i := range binds {
		if binds[i].port == port {
			if rc.bufs == nil {
				panic(fmt.Sprintf("hinch: stream %s: iteration %d has no buffer", binds[i].s.name, rc.iter))
			}
			return (*rc.bufs)[binds[i].s.idx]
		}
	}
	panic(fmt.Sprintf("hinch: %s: port %q not connected", rc.task.Name, port))
}

// Emit appends an event to the named queue (asynchronous communication,
// paper §2 item 3b). The queue name is typically supplied to the
// component as an initialization parameter.
func (rc *RunContext) Emit(queue string, ev Event) error {
	q, ok := rc.app.queues[queue]
	if !ok {
		return fmt.Errorf("hinch: %s: unknown event queue %q", rc.task.Name, queue)
	}
	depth := q.Push(ev)
	rc.app.metrics.eventsEmitted.Add(1)
	if e := rc.app.eng; e != nil && e.tr != nil {
		e.tr.Emit(rc.shard, TraceEvent{
			TS: e.rcTS(rc.shard), Kind: TraceEventPush,
			Worker: int32(rc.shard - 1), Iter: int32(rc.iter),
			ID: int32(rc.app.queueIndex[queue]), Arg: int64(depth),
		})
	}
	return nil
}

// Charge adds ops arithmetic operations to this job's simulated compute
// cost. On the real backend it is a no-op.
func (rc *RunContext) Charge(ops int64) {
	if rc.sim {
		rc.compute += ops
	}
}

// Access records a memory access to a simulated region for the cache
// model. On the real backend it is a no-op.
func (rc *RunContext) Access(region spacecake.Region, write bool) {
	if rc.sim && region.Bytes > 0 {
		rc.access = append(rc.access, spacecake.Access{Region: region, Write: write})
	}
}

// AccessStreamed records a streamed (DMA/burst) transfer of a simulated
// region: bulk file input/output that costs bandwidth, not per-line
// latency, and does not displace the cache working set. On the real
// backend it is a no-op.
func (rc *RunContext) AccessStreamed(region spacecake.Region) {
	if rc.sim && region.Bytes > 0 {
		rc.streamed = append(rc.streamed, region)
	}
}
