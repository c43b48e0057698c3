package hinch

// This file defines the scheduler's test-only instrumentation surface.
// The conformance harness (internal/conformance) injects an
// implementation through Config.Hooks to explore schedules the real
// backend would rarely produce on its own: it yields or sleeps at the
// boundaries below and reseeds each worker's steal-victim order, so
// ordering bugs (like a buffer being published after the flag that
// advertises it) surface within a bounded fuzzing budget instead of
// waiting for production timing. Every call site is nil-checked, so a
// normal run pays one predictable branch per boundary and nothing else.

// YieldPoint identifies a scheduler boundary at which an injected
// TestHooks implementation is consulted.
type YieldPoint int

// Scheduler boundaries exposed to TestHooks.Yield.
const (
	// YieldEnqueue fires in sched.push, just before a job becomes
	// visible to other workers.
	YieldEnqueue YieldPoint = iota
	// YieldComplete fires at the start of complete(), before a finished
	// job releases its dependents.
	YieldComplete
	// YieldRetire fires at the start of retire(), before an iteration's
	// stream buffers are released and backpressured jobs requeue.
	YieldRetire
	// YieldAcquire fires inside ensureBuffers, while the engine lock
	// is held, after the iteration's buffer set is taken and before it
	// is published. Storing the filled set is the only publication, so
	// lock-free readers never see a partial set: other jobs of the
	// iteration see none yet and wait on the lock.
	YieldAcquire
	// YieldDispatch fires on the real backend just before a component
	// job executes, after its fast-path checks have passed.
	YieldDispatch
)

// TestHooks is the test-only scheduler instrumentation interface.
// Implementations must be safe for concurrent use by all workers.
// Production code never sets it; see internal/conformance.
type TestHooks interface {
	// Yield is called at each scheduler boundary. Implementations may
	// return immediately, call runtime.Gosched, or sleep briefly to
	// perturb the schedule. It runs on the worker's goroutine and, for
	// some points, with the engine lock held — it must not call back
	// into the engine or block on other workers' progress.
	Yield(p YieldPoint)
	// StealSeed returns the initial xorshift state for the worker's
	// steal-victim sequence. Returning 0 keeps the default seeding.
	StealSeed(worker int) uint64
}
