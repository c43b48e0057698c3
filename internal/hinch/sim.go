package hinch

import (
	"container/heap"
	"fmt"

	"xspcl/internal/graph"
)

// completion is a scheduled job-finish event in the discrete-event
// simulation.
type completion struct {
	at    int64 // virtual time the event fires
	seq   int64 // tie-breaker for determinism
	start int64 // virtual time the job was dispatched (trace span start)
	core  int   // core freed by the event; -1 for a reconfiguration stall
	ran   bool  // the job actually executed (not a zero-cost skip)
	j     job
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// runSim drives the engine with a deterministic discrete-event
// simulation on the App's SpaceCAKE tile. Jobs are executed (their
// components actually run) at dispatch time; their results become
// visible to dependents at their virtual completion time, which is
// dispatch time plus the job's compute cycles, memory cycles (from the
// cache model) and the runtime's per-job overhead.
//
//hinch:locked
func (e *engine) runSim() (*Report, error) {
	a := e.app
	cores := a.cfg.Cores
	idle := make([]bool, cores)
	for i := range idle {
		idle[i] = true
	}
	nIdle := cores
	busy := make([]int64, cores)
	var clock, seq int64
	var pending completionHeap

	if e.tr != nil {
		e.tr.Begin(e.traceMeta(false))
		defer e.tr.End()
	}
	e.launch(nil)
	for {
		// The cancellation observation point: once per event-loop turn,
		// before dispatch, so a cancel always lands on a virtual-cycle
		// boundary (and a cancel raised synchronously from inside a
		// component or fault injector is observed at a deterministic
		// place in the schedule).
		e.pollCancel()
		// Dispatch ready jobs onto idle cores in FIFO order, lowest core
		// first (deterministic).
		for nIdle > 0 {
			j, ok := e.pop()
			if !ok {
				break
			}
			if e.shouldPark(j) || e.needsBuffers(j) {
				continue
			}
			e.ensureBuffers(j.iter)
			core := 0
			for !idle[core] {
				core++
			}
			idle[core] = false
			nIdle--
			dur, ran, err := e.execJobSim(j, core)
			if err != nil {
				return nil, err
			}
			seq++
			heap.Push(&pending, completion{at: clock + dur, seq: seq, start: clock, core: core, ran: ran, j: j})
			busy[core] += dur
		}
		if len(pending) == 0 {
			if e.finished() {
				break
			}
			return nil, fmt.Errorf("hinch: scheduler stalled at cycle %d (%d iterations in flight)", clock, e.nIters)
		}
		c := heap.Pop(&pending).(completion)
		clock = c.at
		e.simNow = clock
		// Periodic controls (tuner, watchdog) fire at virtual-time
		// boundaries, before the completion is applied, so their
		// decisions are a pure function of the virtual schedule.
		e.fireControlsSim(clock)
		if c.core < 0 {
			// A reconfiguration stall elapsed; popping it advanced the
			// clock. Parked iterations re-enter through checkResumes
			// once the pipeline has drained.
			continue
		}
		idle[c.core] = true
		nIdle++
		if e.tr != nil && c.ran {
			e.tr.Emit(0, TraceEvent{
				TS: c.start, Arg: c.at - c.start, Kind: TraceJobSpan,
				Worker: int32(c.core), Iter: int32(c.j.iter), ID: int32(c.j.task.ID),
			})
		}
		stall, applied, err := e.complete(c.j, nil)
		if err != nil {
			return nil, err
		}
		if applied {
			seq++
			heap.Push(&pending, completion{at: clock + stall, seq: seq, core: -1})
		}
		if e.err != nil {
			return nil, e.err
		}
	}

	rep := e.report()
	rep.Cycles = clock
	rep.CoreBusy = busy
	return rep, nil
}

// execJobSim executes one job immediately and returns its virtual
// duration in cycles: runtime overhead + compute (charged ops) + memory
// latency (the job's recorded accesses run through the cache model on
// its core). ran reports whether the job actually executed rather than
// skipping as a zero-cost no-op.
//
//hinch:locked
func (e *engine) execJobSim(j job, core int) (dur int64, ran bool, err error) {
	a := e.app
	if e.skipExecution(j) {
		// Cancelled iteration or disabled option: a zero-cost no-op
		// that only moves the dependency machinery forward.
		if e.tr != nil {
			e.tr.Emit(0, TraceEvent{
				TS: e.simNow, Kind: TraceJobSkip,
				Worker: int32(core), Iter: int32(j.iter), ID: int32(j.task.ID),
			})
		}
		return 0, false, nil
	}
	cost := a.tile.Config().JobOverheadCycles
	cs := &e.counts[j.task.ID] // shard 0: the sim goroutine's
	cs.jobs.add(1)

	switch j.task.Role {
	case graph.RoleManagerEntry, graph.RoleManagerExit:
		ops, err := e.managerPoll(j)
		if err != nil {
			return 0, false, err
		}
		cs.ops.add(ops)
		if e.tm != nil {
			e.tm.recordSvc(0, j.task.ID, cost+ops)
		}
		return cost + ops, true, nil

	case graph.RoleComponent:
		inst, err := e.resolveInstance(j)
		if err != nil {
			return 0, false, err
		}
		rc := &e.simRC
		out := e.runPolicied(rc, j, inst, true)
		if out.err != nil {
			e.handleRunError(j, out.err)
			if e.err != nil {
				return 0, false, e.err
			}
			// EOS: the job still completes; dependents of this cancelled
			// iteration run as no-ops while the pipeline drains.
		}
		var mem int64
		for _, acc := range rc.access {
			mem += a.tile.AccessRegion(core, acc.Region, acc.Write)
		}
		for _, r := range rc.streamed {
			mem += a.tile.AccessStreamed(core, r)
		}
		cs.ops.add(rc.compute)
		cs.mem.add(mem)
		cs.failed.add(out.faults)
		cs.retries.add(out.retries)
		dur = cost + rc.compute + mem + out.virtual
		if e.tu != nil {
			e.tu.busy[j.task.ID].Add(dur)
		}
		if e.tm != nil {
			// Every sim job is recorded (virtual cycles are free to
			// read), so the histograms are exact and deterministic.
			e.tm.recordSvc(0, j.task.ID, dur)
		}
		// Cost-budget watchdog (sim): a successful job whose virtual
		// cost overruns its deadline (1ns = 1 cycle) degrades exactly
		// like the real backend's wall-deadline overrun — a fault event
		// is emitted but the job's outputs stand.
		if dl := e.policyFor(j.task).Deadline; dl > 0 && out.err == nil && !out.faulted && dur > int64(dl) {
			e.degrade(j, fmt.Sprintf("cost budget exceeded (%d cycles)", dur), 0)
		}
		return dur, true, nil
	}
	return 0, false, fmt.Errorf("hinch: unknown task role %v", j.task.Role)
}
