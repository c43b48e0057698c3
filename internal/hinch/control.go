package hinch

import "time"

// This file implements the run's control clock: the periodic engine
// callbacks — the autotuner's epochs, then the stalled-progress
// watchdog — held in one ordered list built with the engine, and one
// driver per backend that fires them. On sim, runSim fires every
// control the virtual clock has passed, catching up epoch by epoch, so
// decisions are a pure function of the virtual schedule. On real, one
// goroutine fires them under e.mu from a single timer and also owns
// the cancellation watcher.

// control is one periodic engine callback.
type control struct {
	period int64  // epoch length: virtual cycles on sim, wall ns on real
	next   int64  // deadline of the next firing, same units
	fire   func() // runs on the sim goroutine, or under e.mu on real
}

// addControl registers a periodic callback whose first deadline is one
// period into the run. Registration order is firing order.
func (e *engine) addControl(period int64, fire func()) {
	e.controls = append(e.controls, control{period: period, next: period, fire: fire})
}

// fireControlsSim runs every control due at virtual time now. Each one
// replays every epoch it missed (a big clock jump — an injected delay —
// passes several), so stall detection and tuning stay deterministic.
//
//hinch:locked
func (e *engine) fireControlsSim(now int64) {
	for i := range e.controls {
		c := &e.controls[i]
		for now >= c.next {
			c.fire()
			c.next += c.period
		}
	}
}

// startControl starts the real backend's control goroutine when the
// run has work for it — periodic controls or a context to watch — and
// returns the function that stops and joins it.
func (e *engine) startControl() (stop func()) {
	if len(e.controls) == 0 && e.ctxDone == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		e.controlLoop(quit)
	}()
	return func() {
		close(quit)
		<-done
	}
}

// controlLoop is the real backend's control goroutine.
//
// The cancel arm fires at most once. Its sweep rides the engine lock
// like every other slow path and creates no new work — it only turns
// queued jobs into no-ops — so no parked worker needs waking: queued
// work has had its wake, and workers sleeping in a policy backoff
// watch ctxDone themselves.
//
// A timed control that fell behind (the lock was busy, the host
// descheduled us) runs once and then realigns to its period grid, the
// way a time.Ticker drops ticks: replaying the missed epochs back to
// back would count watchdog misses for which no wall time passed.
func (e *engine) controlLoop(quit <-chan struct{}) {
	cancel := e.ctxDone
	var tick <-chan time.Time
	var timer *time.Timer
	if len(e.controls) > 0 {
		timer = time.NewTimer(e.untilNextControl(e.tmNow()))
		defer timer.Stop()
		tick = timer.C
	}
	for {
		select {
		case <-quit:
			return
		case <-cancel:
			cancel = nil
			e.cancelRun()
		case <-tick:
			now := e.tmNow()
			e.mu.Lock()
			for i := range e.controls {
				if c := &e.controls[i]; now >= c.next {
					c.fire()
					c.next += (now-c.next)/c.period*c.period + c.period
				}
			}
			e.mu.Unlock()
			timer.Reset(e.untilNextControl(now))
		}
	}
}

// untilNextControl returns the wait from now to the earliest control
// deadline.
func (e *engine) untilNextControl(now int64) time.Duration {
	next := e.controls[0].next
	for _, c := range e.controls[1:] {
		next = min(next, c.next)
	}
	return time.Duration(next - now)
}
