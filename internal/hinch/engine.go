package hinch

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/graph"
	"xspcl/internal/media"
)

// job identifies one schedulable unit: one task of one iteration.
type job struct {
	iter int
	task *graph.Task
}

// iterState tracks the progress of one in-flight iteration.
//
// The dependency-tracking fields (remaining, done, crossClaim, left) are
// atomic so that the real backend's workers can retire jobs and release
// dependents without the engine lock; the reconfiguration bookkeeping
// (mgrOpts, optStarted) is only touched with e.mu held. The sim backend
// is single-threaded, so the atomics are uncontended there and the
// discrete-event schedule stays deterministic.
type iterState struct {
	// iter is the iteration this ring slot currently holds, or -1 when
	// the slot is free. It is atomic because iterAt probes the ring
	// without mu and validates against it. launch stores iter LAST when
	// it resets the slot, so a probe that reads the new value is
	// guaranteed (seq-cst store/load pairing) to see every other field
	// already reset for the new iteration; any other value makes the
	// probe reject the slot. Written only under mu.
	iter      atomic.Int64
	plan      *graph.Plan
	remaining []atomic.Int32 // unmet dependency count per task
	done      []atomic.Bool
	// crossClaim arbitrates the cross-iteration release of each task:
	// both the completion of the same task in the previous iteration and
	// launch (when it observes that task already done, or no previous
	// iteration at all) may try to satisfy the cross dependency; the CAS
	// winner performs the release, so it happens exactly once even when
	// launch races with a completing worker.
	crossClaim []atomic.Bool
	left       atomic.Int32 // tasks not yet completed
	cancelled  atomic.Bool
	// bufs is the iteration's stream buffer set, assigned lazily at
	// first dispatch (ensureBuffers) and taken back at retire; nil
	// while the iteration holds none. Storing the filled set is the
	// publication: a lock-free reader that loads a non-nil set sees
	// every slot in it.
	bufs atomic.Pointer[bufSet]

	// launchTS is the telemetry clock at launch (virtual cycles on sim,
	// wall ns on real); retire subtracts it to record the end-to-end
	// iteration latency. Written at launch and read at retire, both
	// engine-side (under mu on real, single goroutine on sim).
	launchTS int64

	// mgrOpts[m] is the option-state snapshot taken when manager m's
	// entry ran for this iteration; the iteration's option tasks are
	// enabled or skipped according to it. A reconfiguration may still
	// retro-apply to this iteration as long as none of the option's
	// tasks have started (tracked in optStarted). Guarded by e.mu.
	mgrOpts map[string]map[string]bool

	// optStarted[o] records that at least one task of option o was
	// dispatched in this iteration, fixing the option's state for the
	// rest of the iteration. Guarded by e.mu.
	optStarted map[string]bool
}

// mgrPhase is the reconfiguration protocol state of one manager.
type mgrPhase int

const (
	mgrIdle    mgrPhase = iota // no reconfiguration in progress
	mgrHalted                  // change detected; subgraph draining
	mgrApplied                 // options spliced; pipeline draining before resume
)

// mgrState tracks one manager's reconfiguration protocol.
type mgrState struct {
	phase       mgrPhase
	pending     map[string]bool // desired option states (nil when idle)
	gateAfter   int             // last iteration allowed into the subgraph
	lastEntered int             // highest iteration whose entry has executed
	parked      []job           // held entry jobs of iterations > gateAfter
}

// A bufSet is one in-flight iteration's stream buffers: one slot per
// stream, indexed like App.streamList (Stream.idx).
type bufSet []*slot

// engine implements the shared scheduling machinery: data-flow readiness
// tracking, pipeline parallelism across iterations, and the manager
// reconfiguration protocol (§3.4: detect at the subgraph entrance/exit,
// pre-create eagerly, halt the subgraph, splice at quiescence, resume).
//
// Two executors drive it with different dispatch queues. The sim backend
// keeps the paper's central job queue ("Hinch provides automatic load
// balancing using a central job queue") as a deterministic priority heap.
// The real backend distributes the queue over per-worker deques with
// work stealing (see sched.go): completions release dependents onto the
// completing worker's own deque, preserving producer→consumer cache
// locality, and only the reconfiguration/retirement slow paths take the
// engine lock.
//
// The engine executes one plan for the whole run: the superplan, built
// with every option enabled. Tasks of currently-disabled options flow
// through the dependency machinery as zero-cost no-ops, so enabling or
// disabling an option never re-plans in-flight iterations — it only
// changes the per-iteration snapshot taken at the manager entrance.
type engine struct {
	app *App

	// mu guards the slow-path state: launch/retire, the manager
	// reconfiguration protocol, stream-buffer accounting and the
	// per-iteration option maps. The job dependency fast path
	// (complete/release) runs without it.
	mu sync.Mutex

	// ring owns the iteration records: iteration k always lives in
	// slot k mod len(ring), and a free slot has iter == -1. Slots are
	// reset under mu (launch/retire) and probed lock-free by workers
	// (iterAt), which validate the slot's iter. The window is bounded
	// by PipelineDepth, strictly smaller than the ring, and retirement
	// is strictly in order: while any job of iteration k is
	// mid-completion, retireNext <= k, so neither k's slot nor the slot
	// of k+W it releases into can be reset for another iteration under
	// it.
	ring   []iterState
	nIters int // live iterations; guarded by mu

	// The launch and retirement cursors and the processed count are
	// written under mu (or by the sim goroutine) and atomic so that
	// App.Snapshot reads them lock-free: they are the run's launched,
	// retired and processed iteration counters.
	nextLaunch atomic.Int64 // next iteration to launch
	retireNext atomic.Int64 // oldest iteration not yet retired
	processed  atomic.Int64 // iterations retired and counted
	limit      int          // iterations to run; -1 = until EOS
	stopLaunch int          // first iteration index invalidated by EOS; -1 = none

	// ctxDone is the run context's done channel (nil when the run was
	// started without one); cancelled records that noteCancel ran.
	// Immutable once RunContext sets it, so the per-boundary probes are
	// lock-free.
	ctxDone   <-chan struct{}
	cancelled atomic.Bool

	mgrs  map[string]*mgrState
	stall int64

	// The engine owns every stream buffer. bufFree holds the buffer
	// sets no iteration holds, most recently retired last: handing it
	// to the next dispatching iteration reuses cache-hot buffers. It
	// starts with PipelineDepth sets whose slots are built on first use
	// (buildSlots); since built sets sit above unbuilt ones, a set is
	// built only when every built one is held, so the sets built
	// number exactly bufHigh. Guarded by mu. bufActive (iterations
	// holding a set) and bufHigh (its high-water mark) are written
	// under mu and atomic so App.Snapshot can read them mid-run.
	bufFree   []*bufSet
	bufActive atomic.Int32
	bufHigh   atomic.Int32
	bufParked []job // jobs waiting for stream buffers (backpressure)
	bufSpare  []job // retired bufParked backing array, reused on refill
	// bufCap is the live stream-FIFO capacity; starts at StreamCapacity,
	// tunable. Written under mu (or by the sim goroutine); atomic so
	// App.Snapshot can read it mid-run.
	bufCap atomic.Int32

	// widths[t] is task t's replica width: how many consecutive
	// iterations of t may run concurrently. Width 1 (every task before
	// replicate= existed) serialises the task across iterations; a
	// stateless task at width W carries its cross-iteration dependency
	// from iteration k-W instead of k-1, so up to W iterations of it
	// execute at once, each on its own per-iteration stream slots.
	// Written by setWidth (launch/tuner slow path), read lock-free on
	// the completion fast path.
	widths []atomic.Int32

	tu *tuner // feedback autotuner; nil unless Config.Autotune

	tm *telemetry // live telemetry; nil unless Config.Telemetry

	// controls is the run's control clock: the periodic callbacks
	// (tuner, then watchdog) in firing order (see control.go).
	controls []control

	// counts holds every per-task counter of the run, one shard of
	// len(plan.Tasks) entries per writer: shard 0 for the sim
	// goroutine, shard w+1 for real-backend worker w. App.Snapshot and
	// the Report both fold it (foldCounters).
	counts []taskCounters

	ready readyQueue // sim backend: central job queue, oldest iteration first
	err   error

	simRC RunContext // the sim backend's reusable run context

	ws *sched // real backend: work-stealing scheduler; nil on sim

	hooks TestHooks // test-only schedule perturbation; nil in production

	tr      Tracer    // flight recorder; nil in production
	trStart time.Time // real backend: trace timestamps count from this instant
	simNow  int64     // sim backend: mirror of the virtual clock, for trace timestamps

	faults FaultInjector // deterministic fault injection; nil in production

	// policies[t] is task t's parsed failure policy; nil when every task
	// uses the implicit fail-fast policy, which keeps the fault-free
	// path to one nil check per component dispatch.
	policies []graph.FailurePolicy
	// faultRoute[t] is the event queue of the innermost manager
	// enclosing task t that polls a queue — where the runtime delivers
	// synthetic fault events for t. faultMgr[t] is that manager's trace
	// index. Both nil when policies is nil.
	faultRoute []*EventQueue
	faultMgr   []int32

	mgrNames []string       // sorted manager names; TraceEvent.ID table
	mgrIndex map[string]int // manager name -> trace index
}

// readyQueue is the sim backend's central job queue. Jobs are handed out
// oldest iteration first (ties broken by task ID): the runtime drives
// old iterations to completion before touching new ones, so pipeline
// parallelism only fills otherwise-idle cores instead of round-robining
// across iterations — which both matches a data-flow runtime's natural
// eagerness to retire work and preserves producer→consumer cache
// locality within an iteration.
type readyQueue []job

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].iter != q[j].iter {
		return q[i].iter < q[j].iter
	}
	return q[i].task.ID < q[j].task.ID
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(job)) }
func (q *readyQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// newEngine builds the engine for an App's (single) run. The iteration
// limit is set later, by Run; everything the steady state recycles —
// the iteration ring, the buffer-set headers, the backpressure buffers
// and (real backend) the work-stealing scheduler — is allocated and
// sized here, so the run path starts warm.
func newEngine(a *App) *engine {
	depth := a.cfg.PipelineDepth
	e := &engine{
		app:        a,
		ring:       make([]iterState, depth+2),
		stopLaunch: -1,
		mgrs:       map[string]*mgrState{},
		hooks:      a.cfg.Hooks,
	}
	n := len(a.plan.Tasks)
	e.counts = make([]taskCounters, e.shards()*n)
	for i := range e.ring {
		it := &e.ring[i]
		it.iter.Store(-1)
		it.remaining = make([]atomic.Int32, n)
		it.done = make([]atomic.Bool, n)
		it.crossClaim = make([]atomic.Bool, n)
	}
	// One backing array carries the slot pointers of every set.
	ns := len(a.streamList)
	slots := make([]*slot, depth*ns)
	sets := make([]bufSet, depth)
	e.bufFree = make([]*bufSet, depth)
	for i := range sets {
		sets[i] = slots[i*ns : (i+1)*ns : (i+1)*ns]
		e.bufFree[i] = &sets[i]
	}
	e.bufParked = make([]job, 0, a.cfg.PipelineDepth+1)
	e.bufSpare = make([]job, 0, a.cfg.PipelineDepth+1)
	if a.cfg.Backend == BackendReal {
		e.ws = newSched(a.cfg, e.counts, n)
	}
	for name := range a.managers {
		e.mgrs[name] = &mgrState{lastEntered: -1}
		e.mgrNames = append(e.mgrNames, name)
	}
	// Sorted so every per-manager sweep (and therefore every trace
	// emission order) is independent of map iteration order.
	sort.Strings(e.mgrNames)
	e.mgrIndex = make(map[string]int, len(e.mgrNames))
	for i, n := range e.mgrNames {
		e.mgrIndex[n] = i
	}
	e.tr = a.cfg.Tracer
	e.faults = a.cfg.Faults
	e.bufCap.Store(int32(a.cfg.StreamCapacity))
	e.widths = make([]atomic.Int32, n)
	for i := range e.widths {
		e.widths[i].Store(1)
	}
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		rep, err := graph.TaskReplicate(t)
		if err != nil || rep.Auto || rep.Width <= 1 {
			// Auto widths start at 1; the tuner raises them at runtime.
			// Syntax errors were rejected by Program.Validate.
			continue
		}
		wd := rep.Width
		if wd > a.cfg.PipelineDepth {
			// The pipeline window admits at most PipelineDepth iterations,
			// so a wider width could never be exercised.
			wd = a.cfg.PipelineDepth
		}
		e.widths[t.ID].Store(int32(wd))
	}
	if a.cfg.Autotune {
		e.tu = newTuner(e)
		e.addControl(e.tu.epoch, e.tuneEpoch)
	}
	if a.cfg.Telemetry {
		e.tm = newTelemetry(e)
		if e.ws != nil {
			e.ws.tm = e.tm
			e.addControl(int64(a.cfg.WatchdogWall), e.watchdogEpoch)
		} else {
			e.addControl(a.cfg.WatchdogCycles, e.watchdogEpoch)
		}
	}
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		pol, err := graph.ParseFailurePolicy(t.Params[graph.OnErrorParam], t.Params[graph.DeadlineParam])
		if err != nil || pol.IsDefault() {
			// Syntax errors were rejected by Program.Validate; a
			// hand-built bad policy degenerates to fail-fast.
			continue
		}
		if e.policies == nil {
			e.policies = make([]graph.FailurePolicy, len(a.plan.Tasks))
		}
		e.policies[t.ID] = pol
	}
	if e.policies != nil {
		e.faultRoute = make([]*EventQueue, len(a.plan.Tasks))
		e.faultMgr = make([]int32, len(a.plan.Tasks))
		for _, t := range a.plan.Tasks {
			e.faultMgr[t.ID] = -1
			// Scope lists enclosing managers outermost first; deliver to
			// the innermost one that polls a queue.
			for i := len(t.Scope) - 1; i >= 0; i-- {
				m := a.managers[t.Scope[i]]
				if m != nil && m.Queue != "" {
					e.faultRoute[t.ID] = a.queues[m.Queue]
					e.faultMgr[t.ID] = int32(e.mgrIndex[m.Name])
					break
				}
			}
		}
	}
	return e
}

// policyFor returns task t's failure policy (the zero value is
// fail-fast with no deadline).
func (e *engine) policyFor(t *graph.Task) graph.FailurePolicy {
	if e.policies == nil {
		return graph.FailurePolicy{}
	}
	return e.policies[t.ID]
}

// traceShard maps the acting worker to its tracer shard: shard 0 is
// engine-level (serialised by mu, or by the single sim goroutine);
// shard w+1 is written only by worker w's goroutine.
func traceShard(w *wsWorker) int {
	if w == nil {
		return 0
	}
	return w.id + 1
}

// traceTS returns the trace timestamp for events produced in worker
// w's wake: the virtual clock on sim; the worker's cached span-end
// time on real (exact at span boundaries, stale by at most one job
// elsewhere); or a fresh clock read for engine-level real-backend
// events outside any worker context (rare slow paths only).
func (e *engine) traceTS(w *wsWorker) int64 {
	if e.ws == nil {
		return e.simNow
	}
	if w != nil {
		return w.lastTS
	}
	return int64(time.Since(e.trStart))
}

// rcTS is traceTS for RunContext call sites that only know their
// shard index.
func (e *engine) rcTS(shard int) int64 {
	if e.ws == nil {
		return e.simNow
	}
	if shard > 0 {
		return e.ws.workers[shard-1].lastTS
	}
	return int64(time.Since(e.trStart))
}

// traceMeta assembles the Tracer.Begin metadata for this run.
func (e *engine) traceMeta(wall bool) TraceMeta {
	tasks := make([]string, len(e.app.plan.Tasks))
	for i, t := range e.app.plan.Tasks {
		tasks[i] = t.Name
	}
	streams := make([]string, len(e.app.streamList))
	for i, s := range e.app.streamList {
		streams[i] = s.name
	}
	return TraceMeta{
		Cores:    e.app.cfg.Cores,
		Wall:     wall,
		Tasks:    tasks,
		Streams:  streams,
		Queues:   e.app.queueNames,
		Managers: e.mgrNames,
	}
}

// iterAt returns the in-flight state of iteration k, or nil when k is
// not (or no longer) in flight. Safe without mu: the slot is validated
// against the probed iteration (see iterState.iter).
func (e *engine) iterAt(k int) *iterState {
	if k < 0 {
		return nil
	}
	st := &e.ring[k%len(e.ring)]
	if st.iter.Load() != int64(k) {
		return nil
	}
	return st
}

// eachIter calls f for every in-flight iteration. Must be called with
// mu held (iteration order is unspecified; callers must not depend on
// it).
func (e *engine) eachIter(f func(*iterState)) {
	for i := range e.ring {
		if st := &e.ring[i]; st.iter.Load() >= 0 {
			f(st)
		}
	}
}

// classKey maps a task to its per-class stats bucket.
func classKey(t *graph.Task) string {
	if t.Role != graph.RoleComponent {
		return "manager"
	}
	return t.Class
}

// shards is the number of counter and histogram shards: the engine
// shard plus, on the real backend, one per worker.
func (e *engine) shards() int {
	if e.app.cfg.Backend == BackendReal {
		return e.app.cfg.Cores + 1
	}
	return 1
}

// foldCounters folds every shard's per-task counters by class
// (classKey), returning the per-class breakdown and the run totals.
// Safe mid-run from any goroutine.
func (e *engine) foldCounters() (map[string]ClassStats, ClassStats) {
	tasks := e.app.plan.Tasks
	per := map[string]ClassStats{}
	var total ClassStats
	for i := range e.counts {
		c := &e.counts[i]
		cs := ClassStats{
			Jobs: c.jobs.load(), Ops: c.ops.load(), MemCycles: c.mem.load(),
			Faults: c.failed.load(), Retries: c.retries.load(),
		}
		if cs == (ClassStats{}) {
			continue
		}
		key := classKey(tasks[i%len(tasks)])
		acc := per[key]
		acc.add(cs)
		per[key] = acc
		total.add(cs)
	}
	return per, total
}

// canLaunch reports whether another iteration may enter the pipeline.
// While any manager is halted for reconfiguration no new iterations are
// admitted: "when the application is stopped for reconfiguration, the
// amount of parallelism in the application drops until the application
// is run sequentially" (§4.3). Must be called with mu held.
func (e *engine) canLaunch() bool {
	if e.err != nil {
		return false
	}
	if e.nIters >= e.app.cfg.PipelineDepth {
		return false
	}
	for _, st := range e.mgrs {
		if st.phase != mgrIdle {
			return false
		}
	}
	return e.moreToLaunch()
}

// moreToLaunch reports whether any future iteration remains (ignoring
// the pipeline window).
func (e *engine) moreToLaunch() bool {
	next := int(e.nextLaunch.Load())
	if e.stopLaunch >= 0 && next >= e.stopLaunch {
		return false
	}
	return e.limit < 0 || next < e.limit
}

// finished reports whether the run is complete. Must be called with mu
// held on the real backend.
func (e *engine) finished() bool {
	return e.nIters == 0 && !e.moreToLaunch()
}

// launch admits iterations into the pipeline while the window allows.
// Released jobs are queued via w (the acting worker; nil outside worker
// context). Must be called with mu held.
func (e *engine) launch(w *wsWorker) {
	for e.canLaunch() {
		k := int(e.nextLaunch.Add(1)) - 1
		plan := e.app.plan
		n := len(plan.Tasks)
		it := &e.ring[k%len(e.ring)]
		if it.iter.Load() >= 0 {
			panic(fmt.Sprintf("hinch: iteration ring slot %d still occupied at launch of %d", k%len(e.ring), k))
		}
		it.plan = plan
		for i := range it.done {
			it.done[i].Store(false)
			it.crossClaim[i].Store(false)
		}
		it.cancelled.Store(false)
		clear(it.mgrOpts)
		clear(it.optStarted)
		it.left.Store(int32(n))
		for _, t := range plan.Tasks {
			// Every task carries one cross-iteration dependency on top of
			// its graph dependencies: an instance must finish iteration
			// k-W before starting iteration k, where W is the task's
			// replica width (1 unless replicated — components are
			// stateful by default; stream buffers recycle). It is
			// satisfied through crossClaim, below or by an older
			// iteration's completions.
			it.remaining[t.ID].Store(int32(len(t.Deps)) + 1)
		}
		// Publish the iteration number last: once a concurrent iterAt
		// probe sees iter == k, every reset above is visible.
		it.iter.Store(int64(k))
		e.nIters++
		if e.tm != nil {
			it.launchTS = e.tmNow()
		}
		if e.tr != nil {
			e.tr.Emit(traceShard(w), TraceEvent{
				TS: e.traceTS(w), Kind: TraceIterLaunch,
				Worker: int32(traceShard(w) - 1), Iter: int32(k), ID: -1,
			})
		}
		for _, t := range plan.Tasks {
			back := e.iterAt(k - int(e.widths[t.ID].Load()))
			if back == nil || back.done[t.ID].Load() {
				if it.crossClaim[t.ID].CompareAndSwap(false, true) {
					e.release(k, it, t.ID, w)
				}
			}
		}
	}
}

// enqueue adds a ready job to the dispatch queue: the central heap on
// the sim backend, or a work-stealing deque on the real backend. Jobs
// released in a worker's wake (w non-nil) are not published one by one:
// they collect in the worker's release buffer and go out as a single
// batch — one inflight add, one deque interaction, at most one wake —
// when the worker flushes after the current job (flushReleases).
//
//hinch:hotpath
func (e *engine) enqueue(w *wsWorker, j job) {
	if e.tr != nil {
		e.tr.Emit(traceShard(w), TraceEvent{
			TS: e.traceTS(w), Kind: TraceJobEnqueue,
			Worker: int32(traceShard(w) - 1), Iter: int32(j.iter), ID: int32(j.task.ID),
		})
	}
	if e.ws != nil {
		if w != nil {
			w.relBuf = append(w.relBuf, j)
			return
		}
		e.ws.push(nil, j)
		return
	}
	heap.Push(&e.ready, j)
}

// pop removes the highest-priority ready job (oldest iteration first)
// from the sim backend's central queue. ok is false when the queue is
// empty.
func (e *engine) pop() (job, bool) {
	if len(e.ready) == 0 {
		return job{}, false
	}
	return heap.Pop(&e.ready).(job), true
}

// shouldPark reports whether a just-popped job must be held back: it is
// the entry of a manager whose subgraph is halted for reconfiguration
// and belongs to an iteration beyond the halt point ("it can halt the
// managed subgraph for reconfiguration by suspending the execution of
// its subgraph"). Parked jobs are released by applyReconfig. Must be
// called with mu held.
func (e *engine) shouldPark(j job) bool {
	if j.task.Role != graph.RoleManagerEntry {
		return false
	}
	st := e.mgrs[j.task.Manager]
	if st == nil || st.phase == mgrIdle || j.iter <= st.gateAfter {
		return false
	}
	st.parked = append(st.parked, j)
	return true
}

// complete retires a finished job: it marks the task done, releases
// dependents in the same iteration and the same task in the next
// iteration, finalises the iteration when all tasks are done, and
// applies a pending reconfiguration when the halted manager's subgraph
// just became quiescent. The dependency fast path is lock-free; the
// manager and retirement slow paths take mu internally, so complete
// must be called WITHOUT mu held. applied reports that a
// reconfiguration was spliced in, with the stall to charge; a non-nil
// error (a failed splice) aborts the run and must be propagated by the
// caller.
//
//hinch:hotpath
func (e *engine) complete(j job, w *wsWorker) (stall int64, applied bool, err error) {
	if e.hooks != nil {
		e.hooks.Yield(YieldComplete)
	}
	it := e.iterAt(j.iter)
	if it == nil || it.done[j.task.ID].Swap(true) {
		panic(fmt.Sprintf("hinch: double completion of %s@%d", j.task.Name, j.iter))
	}
	for _, succ := range it.plan.Succs[j.task.ID] {
		e.release(j.iter, it, succ, w)
	}
	// Cross-iteration release, W iterations ahead: the done flag was
	// published above, so if the target iteration is not visible yet,
	// its launch will observe the flag and claim the release itself.
	// The width is loaded after the done Swap; under Go's seq-cst
	// atomics this orders against setWidth's ring sweep, so a resize
	// either reaches this completion (new width targets the right
	// iteration) or the sweep sees the done flag and claims the release
	// — crossClaim deduplicates when both do.
	wt := int(e.widths[j.task.ID].Load())
	if next := e.iterAt(j.iter + wt); next != nil {
		if next.crossClaim[j.task.ID].CompareAndSwap(false, true) {
			e.release(j.iter+wt, next, j.task.ID, w)
		}
	}
	if j.task.Role == graph.RoleManagerExit {
		e.mu.Lock()
		if st := e.mgrs[j.task.Manager]; st != nil && st.phase == mgrHalted && j.iter == st.gateAfter {
			stall, err = e.applyReconfig(j.task.Manager, st, w)
			applied = true
		}
		e.mu.Unlock()
		if err != nil {
			return 0, false, err
		}
	}
	if it.left.Add(-1) == 0 {
		e.mu.Lock()
		e.retireSweep(w)
		e.mu.Unlock()
	}
	return stall, applied, nil
}

// retireSweep retires completed iterations strictly in iteration order,
// starting from the oldest live one. Completion order is monotone
// (iteration k's last task finishes after k-1's, via the cross
// dependency), but on the real backend the workers' lock acquisitions
// are not — retiring out of order would let the live-iteration span
// outgrow the ring even though the live count stays bounded. The sweep
// pins the window to [retireNext, nextLaunch), which the ring size
// strictly covers. Must be called with mu held.
func (e *engine) retireSweep(w *wsWorker) {
	for {
		it := e.iterAt(int(e.retireNext.Load()))
		if it == nil || it.left.Load() != 0 {
			return
		}
		e.retireNext.Add(1)
		e.retire(it, w)
	}
}

// retire finalises a fully-completed iteration: frees its ring slot and
// stream buffers, requeues backpressured jobs, and refills the pipeline.
// Must be called with mu held, via retireSweep.
func (e *engine) retire(it *iterState, w *wsWorker) {
	if e.hooks != nil {
		e.hooks.Yield(YieldRetire)
	}
	k := int(it.iter.Load())
	it.iter.Store(-1)
	e.nIters--
	if bs := it.bufs.Load(); bs != nil {
		it.bufs.Store(nil)
		e.bufFree = append(e.bufFree, bs)
		active := e.bufActive.Add(-1)
		if e.tr != nil {
			for _, s := range e.app.streamList {
				e.tr.Emit(traceShard(w), TraceEvent{
					TS: e.traceTS(w), Kind: TraceStreamRelease,
					Worker: -1, Iter: int32(k), ID: int32(s.idx), Arg: int64(active),
				})
			}
		}
		// Buffers freed: iterations waiting on the stream FIFO
		// capacity can try again. The two backing arrays rotate so the
		// backpressure churn does not allocate.
		parked := e.bufParked
		e.bufParked = e.bufSpare[:0]
		for _, pj := range parked {
			e.enqueue(w, pj)
		}
		e.bufSpare = parked[:0]
	}
	counted := !it.cancelled.Load()
	if counted {
		e.processed.Add(1)
	}
	if e.tm != nil {
		e.tm.iterLat.record(e.tmNow() - it.launchTS)
	}
	if e.tr != nil {
		var arg int64
		if counted {
			arg = 1
		}
		e.tr.Emit(traceShard(w), TraceEvent{
			TS: e.traceTS(w), Kind: TraceIterRetire,
			Worker: int32(traceShard(w) - 1), Iter: int32(k), ID: -1, Arg: arg,
		})
	}
	e.checkResumes(w)
	e.launch(w)
}

// checkResumes releases managers in the applied phase once every
// iteration from before the halt has fully retired: the pipeline has
// drained ("the application is run sequentially", §4.3) and refills
// from the parked iterations — the parallelism loss the paper's Figure
// 10 measures. Must be called with mu held.
func (e *engine) checkResumes(w *wsWorker) {
	for mi, name := range e.mgrNames {
		st := e.mgrs[name]
		if st.phase != mgrApplied {
			continue
		}
		drained := true
		e.eachIter(func(it *iterState) {
			if int(it.iter.Load()) <= st.gateAfter {
				drained = false
			}
		})
		if !drained {
			continue
		}
		if e.tr != nil {
			e.tr.Emit(traceShard(w), TraceEvent{
				TS: e.traceTS(w), Kind: TraceReconfigResume,
				Worker: -1, Iter: int32(st.gateAfter), ID: int32(mi),
			})
		}
		for _, pj := range st.parked {
			e.enqueue(w, pj)
		}
		st.parked = nil
		st.phase = mgrIdle
		e.launch(w)
	}
}

// release satisfies one dependency of a task and queues it once all its
// dependencies are met. Lock-free; safe with or without mu held.
//
//hinch:hotpath
func (e *engine) release(iter int, it *iterState, taskID int, w *wsWorker) {
	n := it.remaining[taskID].Add(-1)
	if n == 0 {
		e.enqueue(w, job{iter: iter, task: it.plan.Tasks[taskID]})
	}
	if n < 0 {
		panic(fmt.Sprintf("hinch: negative dependency count for task %d@%d", taskID, iter))
	}
}

// noteEOS records that the source hit end-of-stream in iteration k:
// iteration k and everything after it is cancelled, and no further
// iterations launch. Must be called with mu held on the real backend.
func (e *engine) noteEOS(k int) {
	if e.stopLaunch < 0 || k < e.stopLaunch {
		e.stopLaunch = k
	}
	e.eachIter(func(it *iterState) {
		if int(it.iter.Load()) >= k {
			it.cancelled.Store(true)
		}
	})
}

// needsBuffers reports whether the job's iteration must wait for
// stream buffers: the FIFO capacity is exhausted by older iterations.
// If so, the job is parked and re-queued when an iteration retires.
// Must be called with mu held.
func (e *engine) needsBuffers(j job) bool {
	it := e.iterAt(j.iter)
	if it == nil || it.bufs.Load() != nil {
		return false
	}
	if e.bufActive.Load() < e.bufCap.Load() {
		return false
	}
	if e.tu != nil {
		e.tu.bufWaits++
	}
	e.bufParked = append(e.bufParked, j)
	return true
}

// ensureBuffers lazily assigns a buffer set to a just-dispatching
// iteration. Deferring the assignment to first dispatch (rather than
// launch) lets the LIFO free list hand the previous iteration's
// cache-hot buffers to the next one whenever the scheduler keeps few
// iterations in flight. Must be called with mu held.
//
//hinch:locked
//hinch:hotpath
func (e *engine) ensureBuffers(iter int) {
	it := e.iterAt(iter)
	if it == nil || it.bufs.Load() != nil {
		return
	}
	n := len(e.bufFree)
	if n == 0 {
		panic(fmt.Sprintf("hinch: more than %d iterations hold stream buffers", e.app.cfg.PipelineDepth))
	}
	bs := e.bufFree[n-1]
	e.bufFree = e.bufFree[:n-1]
	if len(*bs) > 0 && (*bs)[0] == nil {
		e.buildSlots(*bs)
	}
	active := e.bufActive.Add(1)
	if active > e.bufHigh.Load() {
		e.bufHigh.Store(active)
	}
	if e.tu != nil && int(active) > e.tu.bufHW {
		e.tu.bufHW = int(active)
	}
	if e.tm != nil {
		e.tm.occ.record(int64(active))
	}
	if e.tr != nil {
		ts := e.traceTS(nil)
		for _, s := range e.app.streamList {
			e.tr.Emit(0, TraceEvent{
				TS: ts, Kind: TraceStreamAcquire,
				Worker: -1, Iter: int32(iter), ID: int32(s.idx), Arg: int64(active),
			})
		}
	}
	if e.hooks != nil {
		e.hooks.Yield(YieldAcquire)
	}
	// Publish last (see iterState.bufs).
	it.bufs.Store(bs)
}

// buildSlots fills a set with fresh slots at its first use, in stream
// declaration order — the order that fixes the simulated address
// layout. Only the first dispatches of a run, up to the iteration
// overlap the scheduler actually produces, get here.
func (e *engine) buildSlots(bs bufSet) {
	for i, s := range e.app.streamList {
		bs[i] = s.newSlot()
	}
}

// drainFrames returns the stream-owned frames of every free buffer set
// to the global media free-list. Called once, after the run has fully
// stopped: every set of a cleanly finished run is free (its iteration
// retired). Sets still held after an aborted run keep their frames,
// which simply fall to the GC with the App — never recycle a frame a
// failed component might still reference.
func (e *engine) drainFrames() {
	for _, bs := range e.bufFree {
		for _, sl := range *bs {
			if sl != nil && sl.own != nil {
				media.PutFrame(sl.own)
				sl.own = nil
				sl.payload = nil
			}
		}
	}
}

// skipExecution reports whether the job must run as a zero-cost no-op:
// its iteration was cancelled by EOS, or it belongs to an option that
// is disabled in this iteration's snapshot. Must be called with mu
// held (the option maps are lock-guarded).
func (e *engine) skipExecution(j job) bool {
	it := e.iterAt(j.iter)
	if it == nil || it.cancelled.Load() {
		return true
	}
	if j.task.Option == "" {
		return false
	}
	owner := e.app.optionOwner[j.task.Option]
	snap := it.mgrOpts[owner]
	if snap == nil {
		panic(fmt.Sprintf("hinch: option task %s@%d ran before manager %s entry", j.task.Name, j.iter, owner))
	}
	if it.optStarted == nil {
		it.optStarted = map[string]bool{}
	}
	it.optStarted[j.task.Option] = true
	return !snap[j.task.Option]
}

// effectiveOption returns the option state including a manager's
// pending changes.
func (e *engine) effectiveOption(st *mgrState, name string) bool {
	if st.pending != nil {
		if v, ok := st.pending[name]; ok {
			return v
		}
	}
	return e.app.options[name]
}

// managerPoll runs a manager entry or exit job: drain the event queue,
// apply the bound actions (paper §3.4), and — for entries — snapshot
// the option states the iteration will run under. It returns the
// compute ops to charge for overlapped component pre-creation. Must be
// called with mu held.
//
//hinch:locked
func (e *engine) managerPoll(j job) (ops int64, err error) {
	m := e.app.managers[j.task.Manager]
	if m == nil {
		return 0, fmt.Errorf("hinch: unknown manager %q", j.task.Manager)
	}
	st := e.mgrs[j.task.Manager]
	if j.task.Role == graph.RoleManagerEntry && j.iter > st.lastEntered {
		st.lastEntered = j.iter
	}
	if m.Queue != "" {
		q := e.app.queues[m.Queue]
		drained := q.Drain()
		if e.tr != nil && len(drained) > 0 {
			e.tr.Emit(0, TraceEvent{
				TS: e.traceTS(nil), Kind: TraceEventDrain,
				Worker: -1, Iter: int32(j.iter), ID: int32(e.app.queueIndex[m.Queue]), Arg: int64(len(drained)),
			})
		}
		for _, ev := range drained {
			for _, bind := range m.Bindings {
				if bind.Event != ev.Name {
					continue
				}
				for _, act := range bind.Actions {
					o, err := e.applyAction(m, st, j, ev, act)
					if err != nil {
						return ops, err
					}
					ops += o
				}
			}
			// Events nobody bound are dropped, like unhandled user input.
		}
	}
	if j.task.Role == graph.RoleManagerEntry {
		// The current iteration runs under the applied (not pending)
		// configuration; pending changes land after this iteration
		// leaves the subgraph.
		snap := make(map[string]bool, len(e.app.options))
		for k, v := range e.app.options {
			snap[k] = v
		}
		it := e.iterAt(j.iter)
		if it.mgrOpts == nil {
			it.mgrOpts = map[string]map[string]bool{}
		}
		it.mgrOpts[j.task.Manager] = snap
	}
	return ops, nil
}

// applyAction performs one bound action of a delivered event:
// enable/disable/toggle stage a pending option flip and halt the
// manager, reconfig records a request, forward re-enqueues the event.
// Must be called with mu held, via managerPoll.
//
//hinch:locked
func (e *engine) applyAction(m *graph.Node, st *mgrState, j job, ev Event, act graph.EventAction) (ops int64, err error) {
	switch act.Kind {
	case graph.ActionEnable, graph.ActionDisable, graph.ActionToggle:
		cur := e.effectiveOption(st, act.Option)
		want := cur
		switch act.Kind {
		case graph.ActionEnable:
			want = true
		case graph.ActionDisable:
			want = false
		case graph.ActionToggle:
			want = !cur
		}
		if want == cur {
			return 0, nil // "the event is ignored when the option is already in the required state"
		}
		if st.pending == nil {
			st.pending = map[string]bool{}
		}
		st.pending[act.Option] = want
		if st.phase == mgrIdle {
			st.phase = mgrHalted
			// Iterations that already entered the subgraph must drain
			// through the old configuration; detection at an exit may
			// trail entries of later iterations.
			st.gateAfter = j.iter
			if st.lastEntered > st.gateAfter {
				st.gateAfter = st.lastEntered
			}
			if e.tr != nil {
				e.tr.Emit(0, TraceEvent{
					TS: e.traceTS(nil), Kind: TraceReconfigHalt,
					Worker: -1, Iter: int32(st.gateAfter), ID: int32(e.mgrIndex[m.Name]),
				})
			}
		}
		if want && !e.app.cfg.LazyCreation {
			// Pre-create the option's components now, overlapped with
			// execution, so the quiescent window stays short (§3.4:
			// "these components do not have to be created and
			// initialized during reconfiguration").
			n, err := e.preCreateOption(act.Option)
			if err != nil {
				return 0, err
			}
			ops = int64(n) * e.app.cfg.CreateOpsPerComponent
		}
		return ops, nil

	case graph.ActionForward:
		q, ok := e.app.queues[act.Queue]
		if !ok {
			return 0, fmt.Errorf("hinch: manager %q forwards to unknown queue %q", m.Name, act.Queue)
		}
		q.Push(ev)
		return 0, nil

	case graph.ActionReconfig:
		// Broadcast a reconfiguration request to all components in the
		// managed subgraph that listen for them.
		req := act.Request
		if req == "" {
			req = ev.Arg
		}
		for _, t := range e.app.plan.ComponentTasks() {
			if !inScope(t, m.Name) {
				continue
			}
			inst := e.app.instance(t.Name)
			if inst == nil {
				continue
			}
			if _, ok := inst.comp.(Reconfigurable); ok {
				inst.deliver(req)
			}
		}
		return 0, nil
	}
	return 0, fmt.Errorf("hinch: unknown action kind %v", act.Kind)
}

func inScope(t *graph.Task, manager string) bool {
	for _, m := range t.Scope {
		if m == manager {
			return true
		}
	}
	return false
}

// preCreateOption instantiates an option's components if they do not
// exist yet and returns how many were created.
func (e *engine) preCreateOption(option string) (int, error) {
	created := 0
	for _, t := range e.app.plan.ComponentTasks() {
		if t.Option != option {
			continue
		}
		if e.app.instance(t.Name) == nil {
			if err := e.app.createInstance(t); err != nil {
				return created, err
			}
			created++
		}
	}
	return created, nil
}

// applyReconfig splices the pending option changes in at subgraph
// quiescence: iterations up to gateAfter have fully left the manager's
// subgraph and later iterations are parked at its entrance. It returns
// the stall to charge (the parked jobs stay held until checkResumes
// releases them); a non-nil error (component creation failed inside
// the quiescent window) must abort the run. Must be called with mu
// held.
func (e *engine) applyReconfig(name string, st *mgrState, w *wsWorker) (int64, error) {
	nChanged, created := 0, 0
	var firstErr error
	for _, t := range e.app.plan.ComponentTasks() {
		if t.Option == "" {
			continue
		}
		want, changed := st.pending[t.Option]
		if !changed {
			continue
		}
		nChanged++
		if !want {
			// "multiple components are destroyed and/or created"
			e.app.removeInstance(t.Name)
		} else if e.app.instance(t.Name) == nil {
			// Pre-created at event detection unless LazyCreation (or an
			// externally injected enable) deferred it to this quiescent
			// window, where its cost becomes stall time.
			if err := e.app.createInstance(t); err != nil {
				firstErr = err
				break
			}
			created++
		}
	}
	for opt, v := range st.pending {
		e.app.options[opt] = v
		// Retro-apply to in-flight iterations whose snapshot predates
		// the change, as long as none of the option's tasks have
		// started there — they reach the option region only after the
		// splice, so they may run the new configuration.
		owner := e.app.optionOwner[opt]
		e.eachIter(func(it *iterState) {
			snap := it.mgrOpts[owner]
			if snap != nil && !it.optStarted[opt] {
				snap[opt] = v
			}
		})
	}
	stall := e.app.cfg.ReconfigBaseCycles +
		e.app.cfg.ReconfigPerTaskCycles*int64(nChanged) +
		e.app.cfg.CreateOpsPerComponent*int64(created)
	e.stall += stall
	e.app.metrics.reconfigs.Add(1)
	if e.tr != nil {
		e.tr.Emit(traceShard(w), TraceEvent{
			TS: e.traceTS(w), Kind: TraceReconfigApply,
			Worker: -1, Iter: int32(st.gateAfter), ID: int32(e.mgrIndex[name]), Arg: stall,
		})
	}
	// Parked entries stay held until checkResumes sees the pipeline
	// fully drained of pre-halt iterations.
	st.pending = nil
	st.phase = mgrApplied
	return stall, firstErr
}

// executeComponent runs one attempt of a component job in rc (reset in
// place, so a worker reuses one context — and its accumulated-cost
// slices — across jobs). Panics from the component (or an injected
// FaultPanic) are contained: they surface as ordinary errors instead of
// taking down the worker, and the context's next reset clears any
// state the aborted Run accumulated, so the reused RunContext is never
// poisoned. It must be called WITHOUT mu held on the real backend.
func (e *engine) executeComponent(rc *RunContext, j job, inst *instance, sim bool, inject FaultKind) (err error) {
	var bufs *bufSet
	if it := e.iterAt(j.iter); it != nil {
		bufs = it.bufs.Load()
	}
	rc.reset(e.app, j.task, j.iter, bufs, sim)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hinch: component %s@%d panicked: %v", j.task.Name, j.iter, r)
		}
	}()
	switch inject {
	case FaultError:
		return fmt.Errorf("injected fault")
	case FaultPanic:
		panic("injected fault")
	}
	if inst.recon != nil {
		for _, req := range inst.takeMail() {
			if err := inst.recon.Reconfigure(req); err != nil {
				return fmt.Errorf("hinch: reconfigure %q: %w", j.task.Name, err)
			}
		}
	}
	return inst.comp.Run(rc)
}

// runOutcome summarises one policied component execution.
type runOutcome struct {
	err     error // error to hand to handleRunError (EOS or fatal); nil otherwise
	faulted bool  // the iteration was holed (skip-iteration or retry exhaustion)
	faults  int64 // contained failed attempts
	retries int64 // re-attempts made
	virtual int64 // extra virtual cycles to charge on sim (backoff + injected delay)
}

// runPolicied executes a component job under its failure policy:
// consult the fault injector before each attempt, contain failures,
// retry with backoff (virtual cycles on sim, a sleep on real), and on
// exhaustion — or a skip-iteration policy — hole the iteration and
// emit a fault event to the owning manager. Injection happens before
// Run so a failed injected attempt never has partial side effects.
// Lock-free; must be called WITHOUT mu held on the real backend.
func (e *engine) runPolicied(rc *RunContext, j job, inst *instance, sim bool) runOutcome {
	pol := e.policyFor(j.task)
	var out runOutcome
	var start time.Time
	if !sim && pol.Deadline > 0 {
		start = time.Now()
	}
	for attempt := 0; ; attempt++ {
		var f Fault
		if e.faults != nil {
			f = e.faults.Inject(j.task.Name, j.iter, attempt)
			if f.Kind == FaultDelay {
				// A latency spike at the component boundary; the attempt
				// itself then runs normally.
				if sim {
					out.virtual += int64(f.Delay)
				} else if !e.sleepInterruptible(f.Delay) {
					// Cancelled mid-spike: skip the attempt entirely —
					// the iteration is cancelled, the job completes as a
					// no-op and the pipeline drains.
					e.cancelRun()
					return out
				}
				f = Fault{}
			}
		}
		err := e.executeComponent(rc, j, inst, sim, f.Kind)
		if err == nil {
			if !sim && pol.Deadline > 0 && time.Since(start) > pol.Deadline {
				// Wall-deadline watchdog (real backend): the overrun
				// degrades like an exhausted policy, but the job
				// succeeded, so its outputs stand and the iteration is
				// not holed. The sim backend's cost-budget twin lives in
				// execJobSim, where the job's virtual cost is known.
				e.degrade(j, "deadline exceeded", rc.shard)
			}
			return out
		}
		if errors.Is(err, EOS) {
			out.err = err
			return out
		}
		out.faults++
		if e.tr != nil {
			e.tr.Emit(rc.shard, TraceEvent{
				TS: e.rcTS(rc.shard), Kind: TraceFault,
				Worker: int32(rc.shard - 1), Iter: int32(j.iter), ID: int32(j.task.ID), Arg: int64(attempt + 1),
			})
		}
		if pol.Action == graph.PolicyRetry && attempt < pol.Retries {
			back := pol.BackoffAt(attempt)
			if sim {
				out.virtual += int64(back)
			} else if !e.sleepInterruptible(back) {
				// Cancelled mid-backoff: the re-attempt never happens,
				// so it must not count in Report.Retries. The failed
				// attempt above already counted as a fault; the job
				// completes as a no-op of its (now cancelled) iteration.
				e.cancelRun()
				return out
			}
			out.retries++
			if e.tr != nil {
				e.tr.Emit(rc.shard, TraceEvent{
					TS: e.rcTS(rc.shard), Kind: TraceRetry,
					Worker: int32(rc.shard - 1), Iter: int32(j.iter), ID: int32(j.task.ID), Arg: int64(back),
				})
			}
			continue
		}
		if pol.Action == graph.PolicyFail {
			out.err = err
			return out
		}
		// skip-iteration, or retries exhausted: drop the iteration and
		// degrade through the owning manager. With no manager to hear
		// the fault the failure escalates to a run abort.
		if !e.faultIteration(j, err, rc.shard) {
			out.err = fmt.Errorf("no enclosing manager handles faults: %w", err)
			return out
		}
		out.faulted = true
		return out
	}
}

// faultIteration holes iteration j.iter after a contained failure: the
// iteration is cancelled — its remaining jobs, the sink included, run
// as zero-cost no-ops and retirement does not count it — and a fault
// event is pushed to the owning manager's queue so ordinary bindings
// can degrade the configuration. It reports false when no enclosing
// manager polls a queue (the failure must escalate). Lock-free: the
// cancel is an atomic store and the queue serialises itself.
func (e *engine) faultIteration(j job, cause error, shard int) bool {
	if e.faultRoute == nil || e.faultRoute[j.task.ID] == nil {
		return false
	}
	if it := e.iterAt(j.iter); it != nil {
		it.cancelled.Store(true)
	}
	e.degrade(j, cause.Error(), shard)
	return true
}

// degrade emits a synthetic fault(task, reason) event into the queue of
// the innermost queued manager enclosing j's task and counts the
// degradation. The event is an ordinary XSPCL event — bindings like
// <on event="fault" action="disable" option="..."/> perform the actual
// reconfiguration through the unchanged manager protocol. A task with
// no fault route degrades silently (the analyzer's faults pass flags
// such programs). Lock-free.
func (e *engine) degrade(j job, reason string, shard int) {
	if e.faultRoute == nil {
		return
	}
	q := e.faultRoute[j.task.ID]
	if q == nil {
		return
	}
	e.app.metrics.degradations.Add(1)
	depth := q.Push(Event{Name: graph.FaultEvent, Arg: fmt.Sprintf("%s@%d: %s", j.task.Name, j.iter, reason)})
	e.app.metrics.eventsEmitted.Add(1)
	if e.tr != nil {
		e.tr.Emit(shard, TraceEvent{
			TS: e.rcTS(shard), Kind: TraceDegrade,
			Worker: int32(shard - 1), Iter: int32(j.iter), ID: e.faultMgr[j.task.ID], Arg: int64(depth),
		})
	}
}

// resolveInstance fetches the component instance for a job. Lock-free:
// the task-ID-indexed table is republished copy-on-write alongside the
// name map, so the per-job lookup is an index load, not a map access.
//
//hinch:hotpath
func (e *engine) resolveInstance(j job) (*instance, error) {
	inst := (*e.app.instTab.Load())[j.task.ID]
	if inst == nil {
		return nil, fmt.Errorf("hinch: no instance for task %q", j.task.Name)
	}
	return inst, nil
}

// handleRunError classifies a component error: EOS cancels the tail of
// the run; anything else aborts it. Distinct failures from concurrent
// workers aggregate with errors.Join so Run reports all of them, not
// just whichever worker took the lock first. Must be called with mu
// held on the real backend.
func (e *engine) handleRunError(j job, err error) {
	if errors.Is(err, EOS) {
		e.noteEOS(j.iter)
		return
	}
	e.err = errors.Join(e.err, fmt.Errorf("hinch: %s@%d: %w", j.task.Name, j.iter, err))
}

// report assembles the final Report. Must be called after execution has
// fully stopped.
func (e *engine) report() *Report {
	per, total := e.foldCounters()
	r := &Report{
		Outcome:       OutcomeCompleted,
		Iterations:    int(e.processed.Load()),
		Jobs:          total.Jobs,
		Cores:         e.app.cfg.Cores,
		PerClass:      per,
		Reconfigs:     int(e.app.metrics.reconfigs.Load()),
		ReconfigStall: e.stall,
		EventsEmitted: e.app.metrics.eventsEmitted.Load(),
		Faults:        total.Faults,
		Retries:       total.Retries,
		Degradations:  e.app.metrics.degradations.Load(),
		Sched:         e.schedStats(),
	}
	if e.cancelled.Load() {
		r.Outcome = OutcomeCancelled
	}
	if e.app.tile != nil {
		r.Cache = e.app.tile.Stats()
	}
	if e.tu != nil {
		r.Tune = e.tu.stats
		r.TuneLog = append([]TuneDecision(nil), e.tu.log...)
	}
	if e.tm != nil {
		r.Stalls = e.tm.stalls.Load()
		il := stageLat("iteration", e.retireNext.Load(), e.tm.iterLat.snap())
		r.IterLat = &il
		for _, t := range e.app.plan.Tasks {
			h := e.tm.stageHist(t.ID)
			if h.Count == 0 {
				continue
			}
			r.Stages = append(r.Stages, stageLat(t.Name, e.tm.stageJobs(h.Count), h))
		}
	}
	return r
}
