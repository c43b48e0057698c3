package hinch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the real backend's work-stealing dispatch layer.
// Each worker owns a deque of ready jobs: the owner pushes and pops at
// the tail (LIFO — the most recently released successor consumes data
// its producer just wrote, so it is the cache-warm choice), while
// thieves steal from the head (FIFO — the oldest work, most likely from
// an earlier iteration the victim has moved past). Jobs released
// outside any worker context (initial launch) go to a shared overflow
// queue that workers drain alongside their deques.
//
// Idle workers park on a per-worker buffered channel after registering
// on an idle list; producers wake exactly one parked worker per push
// instead of broadcasting on a global condvar, which avoids the
// thundering herd the seed scheduler suffered from.

// wsDeque is a mutex-guarded deque of jobs. Contention is naturally
// low: only the owner and occasional thieves touch it, and the critical
// sections are a few instructions.
type wsDeque struct {
	mu   sync.Mutex
	buf  []job
	head int          // index of the oldest element in buf
	size atomic.Int32 // approximate length, for cheap emptiness probes
}

//hinch:hotpath
func (d *wsDeque) push(j job) {
	d.mu.Lock()
	d.buf = append(d.buf, j)
	d.size.Add(1)
	d.mu.Unlock()
}

// pushN appends a batch of jobs in one lock acquisition — the deque
// half of batched dispatch (one interaction per run of released jobs
// instead of one per job).
//
//hinch:hotpath
func (d *wsDeque) pushN(js []job) {
	d.mu.Lock()
	d.buf = append(d.buf, js...)
	d.size.Add(int32(len(js)))
	d.mu.Unlock()
}

// pop removes the newest job (owner side, LIFO).
func (d *wsDeque) pop() (job, bool) {
	if d.size.Load() == 0 {
		return job{}, false
	}
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.mu.Unlock()
		return job{}, false
	}
	n := len(d.buf) - 1
	j := d.buf[n]
	d.buf[n] = job{}
	d.buf = d.buf[:n]
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	d.size.Add(-1)
	d.mu.Unlock()
	return j, true
}

// steal removes the oldest job (thief side, FIFO).
func (d *wsDeque) steal() (job, bool) {
	var buf [1]job
	if d.stealN(buf[:], 1) == 1 {
		return buf[0], true
	}
	return job{}, false
}

// stealN removes up to max oldest jobs into dst (thief side, FIFO) and
// reports how many it took: at most half of what is queued (rounded
// up), so the victim keeps the cache-warm tail it is about to pop. One
// lock acquisition moves the whole run, where single-job stealing
// would re-contend the victim's deque per job.
//
//hinch:hotpath
func (d *wsDeque) stealN(dst []job, max int) int {
	if d.size.Load() == 0 {
		return 0
	}
	d.mu.Lock()
	avail := len(d.buf) - d.head
	if avail == 0 {
		d.mu.Unlock()
		return 0
	}
	take := (avail + 1) / 2
	if take > max {
		take = max
	}
	copy(dst[:take], d.buf[d.head:d.head+take])
	for i := 0; i < take; i++ {
		d.buf[d.head+i] = job{}
	}
	d.head += take
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	d.size.Add(int32(-take))
	d.mu.Unlock()
	return take
}

// wsWorker is one worker goroutine's scheduler state plus its private
// counter shards: single-writer atomics that readers fold on demand
// (App.Snapshot mid-run, the Report at the end) instead of bouncing
// shared counters on every job.
type wsWorker struct {
	id   int
	dq   wsDeque
	park chan struct{} // buffered(1): a pending wake token
	rng  uint64        // xorshift state for victim selection

	tasks []taskCounters // this worker's shard of engine.counts, by task ID
	rc    RunContext     // reusable run context for this worker's jobs

	// relBuf collects the jobs released by the job this worker is
	// executing; flushReleases publishes them as one batch when the job
	// finishes (and may divert one into next, below).
	relBuf []job

	// next/hasNext is the worker's chained job: the cross-iteration
	// release of the task it just ran (same component, next frame),
	// executed back-to-back without touching any queue. chain counts
	// the run length so far, capped by sched.maxChain.
	next    job
	hasNext bool
	chain   int

	// stealBuf is the scratch the worker steals batches into.
	stealBuf [stealMax]job

	// woken marks that this worker's pending park token came from
	// wakeOne (and counted in sched.wakePending); set before the token
	// send, consumed by blockPark after the token receive.
	woken bool

	// tmTick strides the telemetry service-time sampling: worker-local,
	// bumped once per component job, sampled when the low
	// tmSampleShift bits are zero. Only advanced with telemetry on.
	tmTick uint32

	// lastTS is the worker's cached trace timestamp: the end of its
	// last executed job (refreshed also after a steal hit or unpark).
	// Only maintained while a tracer is attached; secondary trace
	// events reuse it instead of reading the clock.
	lastTS int64

	// ctr is the worker's scheduler counter shard. It comes last, and
	// the pad after it keeps the next allocation off its cache line.
	ctr schedCounters
	_   [64]byte
}

// nextRand is a xorshift64 step — victim order only needs to be cheap
// and spread out, not high quality.
func (w *wsWorker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// stealMax caps how many jobs one steal moves: enough to amortise the
// victim-deque lock over a run, small enough that work keeps spreading
// to further thieves.
const stealMax = 8

// sched is the shared work-stealing state of one real-backend run.
type sched struct {
	workers []*wsWorker
	global  wsDeque   // jobs released outside worker context
	hooks   TestHooks // test-only schedule perturbation; nil in production

	// maxChain bounds the run of same-task consecutive iterations a
	// worker executes back-to-back off its chain slot (see
	// flushReleases): the stream FIFO capacity — a longer run would
	// outrun the buffer window and stall on backpressure anyway —
	// capped so freshly released work still reaches the deques for
	// thieves.
	maxChain int

	// pinned mirrors Config.PinWorkers: steal-victim scanning then
	// walks outward from the thief's id (nearest core first) instead of
	// starting at a random victim.
	pinned bool

	// Topology-aware worker bring-up. Worker 0 runs on the caller's
	// goroutine; the rest are brought online one at a time by
	// signalWork, only while fewer than spawnCap workers exist —
	// min(Cores, NumCPU, GOMAXPROCS), because a dispatch worker beyond
	// the host's usable parallelism never runs concurrently with the
	// others and only adds thread churn. eager restores the
	// spawn-everything-up-front behaviour (schedule exploration via
	// TestHooks, pinned topologies, Config.EagerWorkers).
	eager    bool
	spawnCap int
	spawned  atomic.Int32    // workers online, worker 0 included
	spawn    func(*wsWorker) // starts one worker goroutine; set by runReal

	// inflight counts jobs that are queued or executing. It is
	// incremented before a job becomes visible in any queue and
	// decremented only after its execution (including all the releases
	// it performs) has finished, so inflight==0 is a stable property:
	// the run is either finished or stalled, and the observing worker
	// triggers termination.
	inflight atomic.Int64

	idleMu sync.Mutex
	idle   []*wsWorker
	nidle  atomic.Int32
	done   atomic.Bool

	// wakePending counts workers woken but not yet rescheduled (the
	// token was sent, the worker hasn't come out of its park). Producers
	// skip waking while one is pending: piling futex wakes into that
	// window just queues context switches — on an oversubscribed host
	// they serialise against the very CPU the producer is using — and
	// the pending worker will see the new work anyway when it scans.
	// Spreading to further workers resumes as a cascade: each woken
	// worker that steals a surplus wakes the next (see steal).
	wakePending atomic.Int32

	tr       Tracer       // flight recorder; nil in production
	trStart  time.Time    // trace timestamps count from this instant
	extWakes atomic.Int64 // wakes performed outside any worker context

	tm *telemetry // live telemetry; nil unless Config.Telemetry
}

// newSched builds the scheduler; worker w counts into shard w+1 of
// counts (nTasks entries per shard).
func newSched(cfg Config, counts []taskCounters, nTasks int) *sched {
	n := cfg.Cores
	hooks := cfg.Hooks
	s := &sched{
		workers: make([]*wsWorker, n),
		hooks:   hooks,
		pinned:  cfg.PinWorkers,
	}
	s.maxChain = cfg.StreamCapacity
	if s.maxChain > stealMax {
		s.maxChain = stealMax
	}
	s.eager = hooks != nil || cfg.PinWorkers || cfg.EagerWorkers
	s.spawnCap = n
	if !s.eager {
		if c := runtime.NumCPU(); c < s.spawnCap {
			s.spawnCap = c
		}
		if c := runtime.GOMAXPROCS(0); c < s.spawnCap {
			s.spawnCap = c
		}
	}
	s.spawned.Store(1)
	s.idle = make([]*wsWorker, 0, n)
	for i := range s.workers {
		seed := uint64(i)*0x9e3779b97f4a7c15 + 1
		if hooks != nil {
			// Reseed the victim sequence so schedule exploration visits
			// steal orders the default seeding never produces. Zero keeps
			// the default (xorshift must not start at 0).
			if hs := hooks.StealSeed(i); hs != 0 {
				seed = hs
			}
		}
		s.workers[i] = &wsWorker{
			id:    i,
			park:  make(chan struct{}, 1),
			rng:   seed,
			tasks: counts[(i+1)*nTasks : (i+2)*nTasks],
		}
		s.workers[i].rc.shard = i + 1
		s.workers[i].dq.buf = make([]job, 0, 64)
		s.workers[i].relBuf = make([]job, 0, 32)
	}
	return s
}

// push makes a job runnable. Jobs released by a worker land on its own
// deque; others go to the global queue. A worker's first pending job
// wakes nobody — the worker itself pops it as soon as it finishes the
// job it is executing — so a plain pipeline (every completion releasing
// exactly one successor) runs without any wake traffic at all.
func (s *sched) push(w *wsWorker, j job) {
	if s.hooks != nil {
		s.hooks.Yield(YieldEnqueue)
	}
	s.inflight.Add(1)
	if w != nil {
		w.dq.push(j)
		if w.dq.size.Load() <= 1 {
			return
		}
	} else {
		s.global.push(j)
	}
	if s.signalWork() {
		if w != nil {
			w.ctr.wakes.add(1)
		} else {
			s.extWakes.Add(1)
		}
	}
}

// pushBatch makes a run of jobs released by one execution runnable in
// a single publish: one inflight add, one deque lock and at most one
// wake, where per-job pushes pay all three per job — the cross-worker
// traffic that made adding workers slow the scheduler down. busy says
// the owner already holds a chained next job, so the whole batch (not
// all but one) is up for grabs by thieves.
//
//hinch:hotpath
func (s *sched) pushBatch(w *wsWorker, js []job, busy bool) {
	if len(js) == 0 {
		return
	}
	if s.hooks != nil {
		s.hooks.Yield(YieldEnqueue)
	}
	s.inflight.Add(int64(len(js)))
	w.dq.pushN(js)
	if len(js) > 1 {
		w.ctr.batches.add(1)
	}
	spare := len(js)
	if !busy {
		spare--
	}
	if spare > 0 && s.signalWork() {
		w.ctr.wakes.add(1)
	}
}

// wakeOne unparks one idle worker, if any, reporting whether it did.
// The woken worker is marked pending until it actually resumes
// (blockPark clears it), throttling further wakes to one in flight.
func (s *sched) wakeOne() bool {
	s.idleMu.Lock()
	var w *wsWorker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.nidle.Store(int32(len(s.idle)))
	}
	s.idleMu.Unlock()
	if w != nil {
		s.wakePending.Add(1)
		w.woken = true
		w.park <- struct{}{} // buffered; never blocks
		return true
	}
	return false
}

// signalWork notifies the scheduler that runnable work was published
// beyond what its producer will consume itself: wake a parked worker,
// or — if nobody is parked and the topology cap allows — bring the
// next not-yet-started worker online. No-op while a previously
// notified worker has not engaged yet (wakePending), so backlogs ramp
// workers up one at a time instead of queueing futex wakes. Reports
// whether a worker was notified.
func (s *sched) signalWork() bool {
	if s.wakePending.Load() != 0 {
		return false
	}
	if s.nidle.Load() > 0 {
		return s.wakeOne()
	}
	for {
		n := s.spawned.Load()
		if int(n) >= s.spawnCap || s.spawn == nil {
			return false
		}
		if s.spawned.CompareAndSwap(n, n+1) {
			w := s.workers[n]
			s.wakePending.Add(1)
			w.woken = true
			s.spawn(w)
			return true
		}
	}
}

// steal scans the other workers and the global queue for work. Victim
// order is pseudo-random by default; with pinned workers it walks
// outward from the thief's id (±1, ±2, …), so work migrates between
// near cores first. A hit takes a batch (up to half the victim's
// deque): the first job is returned, the rest land on the thief's own
// deque, and one more idle worker is woken to keep the work spreading.
//
//hinch:hotpath
func (s *sched) steal(w *wsWorker) (job, bool) {
	w.ctr.stealAttempts.add(1)
	n := len(s.workers)
	start := 0
	if !s.pinned && n > 1 {
		start = int(w.nextRand() % uint64(n))
	}
	for i := 0; i < n; i++ {
		var v *wsWorker
		if s.pinned {
			if i == 0 {
				continue
			}
			// Ring offsets 1, -1, 2, -2, …: nearest ids (nearest
			// cores, with one worker pinned per core) first.
			off := (i + 1) / 2
			if i%2 == 0 {
				off = n - off
			}
			v = s.workers[(w.id+off)%n]
		} else {
			v = s.workers[(start+i)%n]
			if v == w {
				continue
			}
		}
		took := v.dq.stealN(w.stealBuf[:], stealMax)
		if took == 0 {
			continue
		}
		w.ctr.steals.add(int64(took))
		if s.tm != nil {
			s.tm.stealTake.record(int64(took))
		}
		if took > 1 {
			w.dq.pushN(w.stealBuf[1:took])
			if s.signalWork() {
				w.ctr.wakes.add(1)
			}
		}
		if s.tr != nil {
			// The stolen run came from a cold deque; refresh the
			// cached timestamp so its span starts here, not at this
			// worker's last job.
			w.lastTS = int64(time.Since(s.trStart))
			s.tr.Emit(w.id+1, TraceEvent{
				TS: w.lastTS, Kind: TraceStealHit,
				Worker: int32(w.id), Iter: -1, ID: int32(v.id), Arg: int64(took),
			})
		}
		return w.stealBuf[0], true
	}
	j, ok := s.global.steal()
	if ok {
		w.ctr.globalPops.add(1)
		if s.tr != nil {
			w.lastTS = int64(time.Since(s.trStart))
			s.tr.Emit(w.id+1, TraceEvent{
				TS: w.lastTS, Kind: TraceGlobalPop,
				Worker: int32(w.id), Iter: -1, ID: -1,
			})
		}
	}
	return j, ok
}

// anyQueued reports whether any queue holds work (approximate; used
// only to avoid parking with work visible).
func (s *sched) anyQueued() bool {
	if s.global.size.Load() > 0 {
		return true
	}
	for _, w := range s.workers {
		if w.dq.size.Load() > 0 {
			return true
		}
	}
	return false
}

// park blocks w until new work may be available or the run stops. The
// re-check after registering on the idle list closes the missed-wakeup
// window: a producer that saw nidle==0 before our registration must
// have published its job before we scan the queues.
func (s *sched) park(w *wsWorker) {
	s.idleMu.Lock()
	s.idle = append(s.idle, w)
	s.nidle.Store(int32(len(s.idle)))
	s.idleMu.Unlock()
	if s.done.Load() || s.anyQueued() {
		// Deregister; if someone already granted us a wake token,
		// consume it instead.
		s.idleMu.Lock()
		removed := false
		for i, x := range s.idle {
			if x == w {
				s.idle = append(s.idle[:i], s.idle[i+1:]...)
				removed = true
				break
			}
		}
		s.nidle.Store(int32(len(s.idle)))
		s.idleMu.Unlock()
		if !removed {
			s.blockPark(w)
		}
		return
	}
	s.blockPark(w)
}

// blockPark is park's blocking wait, bracketed by park/unpark trace
// events. The post-wake refresh of the cached timestamp keeps the idle
// gap out of the next job's span.
func (s *sched) blockPark(w *wsWorker) {
	w.ctr.parks.add(1)
	var t0 time.Time
	if s.tm != nil {
		t0 = time.Now()
	}
	if s.tr != nil {
		s.tr.Emit(w.id+1, TraceEvent{
			TS: int64(time.Since(s.trStart)), Kind: TracePark,
			Worker: int32(w.id), Iter: -1, ID: -1,
		})
	}
	<-w.park
	if s.tm != nil {
		s.tm.parkDur.record(int64(time.Since(t0)))
	}
	if w.woken {
		w.woken = false
		s.wakePending.Add(-1)
	}
	if s.tr != nil {
		w.lastTS = int64(time.Since(s.trStart))
		s.tr.Emit(w.id+1, TraceEvent{
			TS: w.lastTS, Kind: TraceUnpark,
			Worker: int32(w.id), Iter: -1, ID: -1,
		})
	}
}

// finish stops the run: all parked workers are woken and the done flag
// stops the rest at their next loop check.
func (s *sched) finish() {
	if s.done.Swap(true) {
		return
	}
	s.idleMu.Lock()
	idle := s.idle
	s.idle = nil
	s.nidle.Store(0)
	s.idleMu.Unlock()
	for _, w := range idle {
		w.park <- struct{}{}
	}
}
