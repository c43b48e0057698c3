package hinch

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xspcl/internal/graph"
)

// runReal drives the engine with a pool of worker goroutines over the
// work-stealing dispatch layer (sched.go) — the runtime's actual
// parallel execution mode, used by the examples and concurrency tests.
// Virtual-cost accounting is inert; Report.Wall carries the host
// elapsed time.
func (e *engine) runReal() (*Report, error) {
	start := time.Now()
	e.trStart = start
	if e.tr != nil {
		e.ws.tr = e.tr
		e.ws.trStart = start
		e.tr.Begin(e.traceMeta(true))
	}

	var wg sync.WaitGroup
	spawn := func(w *wsWorker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runWorker(w)
		}()
	}
	if !e.ws.eager {
		// Lazy bring-up: signalWork starts workers 1..spawnCap-1 on
		// demand; it must be installed before the launch below publishes
		// the first jobs.
		e.ws.spawn = spawn
	}

	// A context cancelled before the run starts launches nothing:
	// noteCancel caps stopLaunch at zero, so the pre-cancelled case
	// deterministically processes zero iterations on this backend too,
	// not just on sim.
	e.pollCancel()
	e.mu.Lock()
	e.launch(nil)
	e.mu.Unlock()

	// The control goroutine — periodic tuner and watchdog epochs plus
	// the cancellation watcher — is the one goroutine besides the
	// workers; it is joined before the tracer ends, since its callbacks
	// emit trace events.
	stopControl := e.startControl()

	if e.ws.eager {
		for _, w := range e.ws.workers {
			spawn(w)
		}
	} else {
		// Worker 0 runs on this goroutine. The common sequential and
		// shallow-parallel cases then execute without any goroutine
		// handoff at all — no spawn, no WaitGroup wake at the end.
		e.runWorker(e.ws.workers[0])
	}
	wg.Wait()
	stopControl()
	// If the context fired while the control goroutine raced run
	// teardown, it may have been stopped without sweeping. Nothing is
	// left to sweep — execution stopped — but a cancel that lost the
	// race against natural completion is recorded (either outcome would
	// have been valid; claiming the one the caller asked for is the
	// consistent choice).
	e.pollCancel()
	if e.tr != nil {
		e.tr.End()
	}
	if e.err != nil {
		return nil, e.err
	}
	rep := e.report()
	rep.Wall = time.Since(start)
	return rep, nil
}

// runWorker is one worker goroutine's loop: run the chained next job
// if flushReleases installed one (same task, next iteration — no queue
// touched at all), else pop from the local deque (LIFO — cache-warm
// successors first), then steal from another worker or the global
// overflow queue (sched.steal covers both); park when nothing is
// runnable anywhere.
//
//hinch:hotpath
func (e *engine) runWorker(w *wsWorker) {
	s := e.ws
	if e.app.cfg.PinWorkers {
		pinWorker(w.id)
	}
	if w.woken {
		// Lazily spawned by signalWork: now that the goroutine is
		// running, further work notifications may target the next worker.
		w.woken = false
		s.wakePending.Add(-1)
	}
	for {
		if s.done.Load() {
			w.ctr.chained.add(int64(w.chain))
			return
		}
		// Dispatch-boundary cancellation probe: a fired run context is
		// swept within one job per worker (the control goroutine's
		// cancel arm covers workers that are parked or mid-component).
		e.pollCancel()
		var j job
		var ok bool
		if w.hasNext {
			j, ok = w.next, true
			w.hasNext = false
		} else {
			if w.chain > 0 {
				// The run of same-task iterations just ended: emit its
				// batch header (one per run, carrying the run length).
				if e.tr != nil {
					e.tr.Emit(w.id+1, TraceEvent{
						TS: w.lastTS, Kind: TraceBatch,
						Worker: int32(w.id), Iter: -1, ID: -1, Arg: int64(w.chain + 1),
					})
				}
				w.ctr.chained.add(int64(w.chain))
				w.chain = 0
			}
			j, ok = w.dq.pop()
			if !ok {
				j, ok = s.steal(w)
			}
		}
		if !ok {
			if s.inflight.Load() == 0 {
				// Nothing queued, nothing executing: the run is over
				// (or wedged — surfaced as an error, never a hang).
				e.checkTermination()
				continue
			}
			s.park(w)
			continue
		}
		e.execReal(w, j)
		e.flushReleases(w, j)
		s.inflight.Add(-1)
	}
}

// flushReleases publishes the jobs j's execution released (collected in
// the worker's release buffer by enqueue). The cross-iteration release
// of j's own task — the same component on the next frame — is diverted
// into the worker's chain slot while the chain budget lasts, to be
// executed back-to-back without touching a queue; the rest goes out as
// one batch. Must run before j's inflight decrement: the batch's
// inflight add (and the chained job's, counted here) keeps the
// termination count from dipping to zero while work is still invisible.
//
//hinch:hotpath
func (e *engine) flushReleases(w *wsWorker, j job) {
	buf := w.relBuf
	if len(buf) == 0 {
		return
	}
	if !w.hasNext && w.chain < e.ws.maxChain {
		for i := range buf {
			if buf[i].task == j.task && buf[i].iter == j.iter+1 {
				w.next = buf[i]
				w.hasNext = true
				w.chain++
				e.ws.inflight.Add(1)
				n := len(buf) - 1
				buf[i] = buf[n]
				buf = buf[:n]
				break
			}
		}
	}
	e.ws.pushBatch(w, buf, w.hasNext)
	w.relBuf = w.relBuf[:0]
}

// checkTermination decides, under the engine lock, whether an observed
// inflight==0 means completion or a stall, and stops the run either
// way. inflight is stable at zero: it is only raised by executing jobs
// (all releases of a job happen before its inflight decrement) and the
// initial launch, so a worker that observes zero can trust it.
func (e *engine) checkTermination() {
	e.mu.Lock()
	if e.ws.inflight.Load() == 0 && !e.ws.done.Load() {
		if !e.finished() && e.err == nil {
			e.err = fmt.Errorf("hinch: scheduler stalled with %d iterations in flight", e.nIters)
		}
		e.mu.Unlock()
		e.ws.finish()
		return
	}
	e.mu.Unlock()
}

// execReal runs one job. Component jobs of iterations that already hold
// stream buffers take a lock-free fast path straight to execution;
// manager jobs and first-dispatch/option/cancellation cases go through
// the engine lock, mirroring the sim backend's dispatch checks
// (shouldPark → needsBuffers → skipExecution → ensureBuffers).
//
//hinch:hotpath
func (e *engine) execReal(w *wsWorker, j job) {
	if j.task.Role != graph.RoleComponent {
		e.mu.Lock()
		if e.shouldPark(j) || e.needsBuffers(j) {
			e.mu.Unlock()
			return
		}
		if e.skipExecution(j) {
			e.mu.Unlock()
			e.traceSkip(w, j)
			e.finishReal(w, j)
			return
		}
		e.ensureBuffers(j.iter)
		w.tasks[j.task.ID].jobs.add(1)
		_, err := e.managerPoll(j)
		e.mu.Unlock()
		if err != nil {
			e.failReal(err)
			return
		}
		if e.tr != nil {
			e.traceSpan(w, j)
		}
		e.finishReal(w, j)
		return
	}

	// Component job. A live job's iteration cannot retire under it (the
	// iteration's left-count includes this job), so it is non-nil.
	// The cancelled check below is racy by design: a concurrent noteEOS
	// can cancel the iteration just after we load false, in which case
	// the component runs redundantly but harmlessly — cancelled
	// iterations' results are discarded at retirement, same as the
	// seed's dispatch-then-execute window.
	it := e.iterAt(j.iter)
	if it == nil || it.bufs.Load() == nil || it.cancelled.Load() || j.task.Option != "" {
		e.mu.Lock()
		if e.needsBuffers(j) {
			e.mu.Unlock()
			return
		}
		if e.skipExecution(j) {
			e.mu.Unlock()
			e.traceSkip(w, j)
			e.finishReal(w, j)
			return
		}
		e.ensureBuffers(j.iter)
		e.mu.Unlock()
	}

	if e.hooks != nil {
		// Stretch the window between the lock-free bufs/cancelled
		// probes above and the component's first stream access.
		e.hooks.Yield(YieldDispatch)
	}
	inst, err := e.resolveInstance(j)
	if err != nil {
		e.failReal(err)
		return
	}
	w.tasks[j.task.ID].jobs.add(1)
	var tuStart time.Time
	if e.tu != nil {
		tuStart = time.Now()
	}
	// Stride-sampled service timing: 1 in 2^tmSampleShift of this
	// worker's component jobs pays two clock reads; the tick counter is
	// worker-local, so sampling is uncontended. When the tuner already
	// timed the job, its clock reads are reused.
	sample := false
	var tmStart time.Time
	if e.tm != nil {
		w.tmTick++
		if w.tmTick&tmSampleMask == 0 {
			sample = true
			if e.tu != nil {
				tmStart = tuStart
			} else {
				tmStart = time.Now()
			}
		}
	}
	out := e.runPolicied(&w.rc, j, inst, false)
	var svcDur int64
	if e.tu != nil {
		svcDur = int64(time.Since(tuStart))
		e.tu.busy[j.task.ID].Add(svcDur)
	} else if sample {
		svcDur = int64(time.Since(tmStart))
	}
	if sample && e.tm != nil {
		e.tm.recordSvc(w.id+1, j.task.ID, svcDur)
	}
	if out.faults > 0 || out.retries > 0 {
		c := &w.tasks[j.task.ID]
		c.failed.add(out.faults)
		c.retries.add(out.retries)
	}
	if e.tr != nil {
		e.traceSpan(w, j)
	}
	if out.err != nil {
		e.mu.Lock()
		e.handleRunError(j, out.err)
		fatal := e.err
		e.mu.Unlock()
		if fatal != nil {
			e.ws.finish()
			return
		}
		// EOS: the tail of the run is cancelled, but this job still
		// completes so the pipeline drains.
	}
	e.finishReal(w, j)
}

// traceSpan emits the span of w's just-executed job: the start is the
// worker's cached previous timestamp, the end is the one fresh clock
// read made per executed job (which becomes the new cache, so every
// secondary event this job produces reuses it). Call only with a
// tracer attached.
func (e *engine) traceSpan(w *wsWorker, j job) {
	if e.tr == nil {
		return
	}
	t0 := w.lastTS
	w.lastTS = int64(time.Since(e.trStart))
	e.tr.Emit(w.id+1, TraceEvent{
		TS: t0, Arg: w.lastTS - t0, Kind: TraceJobSpan,
		Worker: int32(w.id), Iter: int32(j.iter), ID: int32(j.task.ID),
	})
}

// traceSkip records a zero-cost no-op job without reading the clock.
func (e *engine) traceSkip(w *wsWorker, j job) {
	if e.tr == nil {
		return
	}
	e.tr.Emit(w.id+1, TraceEvent{
		TS: w.lastTS, Kind: TraceJobSkip,
		Worker: int32(w.id), Iter: int32(j.iter), ID: int32(j.task.ID),
	})
}

// finishReal retires a job through complete(). Errors surfacing from
// completion (a failed reconfiguration splice) abort the run
// explicitly; a reconfiguration stall is virtual time, inert on the
// real backend.
func (e *engine) finishReal(w *wsWorker, j job) {
	if _, _, err := e.complete(j, w); err != nil {
		e.failReal(err)
	}
}

// failReal records an error (aggregating with any the run already
// collected) and stops the run.
func (e *engine) failReal(err error) {
	e.mu.Lock()
	e.err = errors.Join(e.err, err)
	e.mu.Unlock()
	e.ws.finish()
}
