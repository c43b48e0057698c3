package hinch

// This file implements the run's cooperative cancellation. A run
// started with App.RunContext watches the context's done channel at
// the engine's own pace and, when it fires, reuses the EOS machinery:
// noteCancel stops further launches and marks every in-flight
// iteration cancelled, so the remaining jobs drain through the
// dependency machinery as zero-cost no-ops, every iteration retires
// (uncounted), and the stream slots and iterState free-lists come back
// exactly as on a clean finish. Cancellation is therefore never an
// abort — it is an early EOS injected from outside the graph — and a
// cancelled run returns a valid partial Report (Outcome =
// OutcomeCancelled) with a nil error.
//
// Observation points differ per backend:
//
//   - sim: runSim polls the done channel at exactly one place, the top
//     of its event loop, before dispatching ready jobs. The sweep then
//     lands on a virtual-cycle boundary, and when the cancel itself is
//     raised from inside the simulation (a component or fault injector
//     calling the CancelFunc — context cancellation closes the done
//     channel synchronously), the whole cancelled schedule is as
//     deterministic as any other sim run: traces are byte-identical
//     across repeats. A cancel raised from another goroutine is still
//     honoured at the next boundary, just not reproducibly placed.
//   - real: every worker probes the done channel at its dispatch
//     boundary (pollCancel, loop top of runWorker), so a cancel takes
//     effect within one job per worker; the cancel arm of the control
//     goroutine (control.go; joined before runReal returns, so a
//     cancelled run leaks nothing) backstops the case where all
//     workers are parked or deep in long components. Retry-backoff
//     and injected-delay sleeps select on the same channel
//     (sleepInterruptible), so a worker parked in a policy backoff
//     wakes immediately instead of serving out a sleep nobody will
//     consume.

import "time"

// noteCancel cancels the whole run: no further iterations launch and
// every in-flight iteration is marked cancelled, which turns its
// remaining jobs into zero-cost no-ops (the EOS drain path). Idempotent.
// Must be called with mu held on the real backend.
func (e *engine) noteCancel() {
	if e.cancelled.Swap(true) {
		return
	}
	if next := int(e.nextLaunch.Load()); e.stopLaunch < 0 || next < e.stopLaunch {
		e.stopLaunch = next
	}
	e.eachIter(func(it *iterState) {
		it.cancelled.Store(true)
	})
}

// pollCancel is the run's cancellation observation point: a
// non-blocking probe of the run context's done channel. The sim
// backend calls it once per event-loop turn; the real backend at every
// worker's dispatch boundary and around launch and teardown. The
// common paths — no context, or already swept — are one predictable
// branch; only the first observer of a fired context pays for the
// lock and the sweep.
//
//hinch:hotpath
func (e *engine) pollCancel() {
	if e.ctxDone == nil || e.cancelled.Load() {
		return
	}
	select {
	case <-e.ctxDone:
		e.cancelRun()
	default:
	}
}

// sleepInterruptible sleeps for d on the real backend, returning false
// when the run context was cancelled first. Without a context it is a
// plain time.Sleep, as before cancellation existed.
func (e *engine) sleepInterruptible(d time.Duration) bool {
	if e.ctxDone == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.ctxDone:
		return false
	}
}

// cancelRun cancels the run under mu. Besides pollCancel, callers are
// the control goroutine's cancel arm and a policy sleep cut short by
// cancellation: the worker must not proceed on the strength of a race,
// so it sweeps the whole run itself.
func (e *engine) cancelRun() {
	e.mu.Lock()
	e.noteCancel()
	e.mu.Unlock()
}
