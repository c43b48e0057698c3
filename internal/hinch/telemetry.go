package hinch

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// This file implements the live telemetry subsystem: per-worker
// histogram shards for job service time, a set of shared histograms for
// iteration latency, stream occupancy and scheduler behaviour, and the
// stalled-progress watchdog behind /healthz. Counters are not kept
// here: they live once, in the engine's per-worker shards.
//
// Like Config.Tracer and Config.Hooks, telemetry is nil in production
// (Config.Telemetry off) — every record site pays one predictable
// branch. The write side follows the flight recorder's shard
// discipline: the service-time histograms are sharded per worker
// (shard 0 for the engine/sim goroutine, shard w+1 for worker w), so a
// record is an uncontended add into the owning worker's own shard.
// The histogram cells are atomic rather than plain because scrapes
// (App.Snapshot, the /metrics handler) merge the shards mid-run from
// arbitrary goroutines; single-writer atomic adds keep every scrape
// race-free under -race.
//
// Units follow the tracer's clock domains: virtual cycles on the sim
// backend (every job is recorded, so histograms are deterministic and
// golden-pinnable) and wall nanoseconds on the real backend, where
// service times are stride-sampled (1 in 2^tmSampleShift jobs per
// worker) to keep the telemetry-on overhead inside a few percent of
// the ~200ns dispatch path.

// histBuckets is the fixed bucket count of every histogram: bucket b
// holds values v with bits.Len64(v) == b, i.e. [2^(b-1), 2^b), with
// bucket 0 holding exactly 0. 48 buckets cover ~2^47 cycles or ~39
// hours in nanoseconds.
const histBuckets = 48

// tmSampleShift is the real backend's service-time sampling stride:
// each worker times 1 in 2^tmSampleShift of its component jobs (two
// clock reads per sample). The sim backend records every job from its
// virtual duration, which costs no clock reads at all.
const (
	tmSampleShift = 5
	tmSampleMask  = 1<<tmSampleShift - 1
)

// hist is one fixed-size log-bucketed histogram. All fields are
// single-writer in the sharded layouts (or serialised by the engine
// lock), so the adds never contend; atomics make concurrent scrape
// merges race-free.
type hist struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

//hinch:hotpath
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[b].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// snap copies the histogram into an exportable snapshot. Safe to call
// concurrently with record; the copy is consistent enough for
// monitoring (each field individually up to date).
func (h *hist) snap() HistSnap {
	s := HistSnap{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	top := -1
	var buckets [histBuckets]int64
	for i := range h.bucket {
		buckets[i] = h.bucket[i].Load()
		if buckets[i] > 0 {
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), buckets[:top+1]...)
	}
	return s
}

// addInto accumulates this histogram into an in-progress merge.
func (h *hist) addInto(dst *HistSnap, buckets []int64) {
	dst.Count += h.count.Load()
	dst.Sum += h.sum.Load()
	if m := h.max.Load(); m > dst.Max {
		dst.Max = m
	}
	for i := range h.bucket {
		buckets[i] += h.bucket[i].Load()
	}
}

// HistSnap is a merged histogram snapshot: log2 buckets (bucket i
// counts values v with bits.Len64(v) == i — [2^(i-1), 2^i), bucket 0
// counting zeros), trimmed to the highest non-empty bucket.
type HistSnap struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<i - 1
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the first bucket whose cumulative count reaches q*Count,
// clamped to Max. Deterministic given the bucket contents.
func (s HistSnap) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			b := BucketBound(i)
			if b > s.Max {
				b = s.Max
			}
			return b
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values.
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// telemetry is the engine's live-metrics state; nil unless
// Config.Telemetry. It holds only histograms and the watchdog: every
// counter lives once, in the per-worker shards (engine.counts,
// wsWorker.ctr), which App.Snapshot reads with or without telemetry.
// Histogram layout: svc[shard*nTasks+task] is the service-time shard
// written only by that shard's goroutine; occ, iterLat and the
// scheduler histograms are engine-level (serialised by mu or recorded
// at rare scheduler boundaries).
type telemetry struct {
	wall   bool // real backend: values are wall ns; sim: virtual cycles
	nTasks int

	svc []hist // (shard, task) service-time shards
	// occ is the stream occupancy (iterations holding a buffer set),
	// recorded at every buffer-set acquire. Every stream's occupancy
	// is this one count, so Snapshot reports it for each stream.
	occ hist

	iterLat   hist // launch -> retire latency per iteration
	stealTake hist // jobs moved per steal hit (real backend)
	parkDur   hist // park duration in wall ns (real backend)

	// Stalled-progress watchdog: at every watchdog control epoch
	// (WatchdogCycles virtual cycles on sim, WatchdogWall on real) the
	// engine compares the retired-iteration cursor against the previous
	// epoch; wdK epochs without a retirement flip stalled (and
	// /healthz) until progress resumes.
	stalled  atomic.Bool
	stalls   atomic.Int64
	wdK      int
	wdLast   int64 // retired cursor at the previous epoch; engine-side only
	wdMisses int   // consecutive epochs without progress; engine-side only
}

// newTelemetry sizes the telemetry state for an engine. The sim
// backend records from its single goroutine only (one shard); the real
// backend gets one service-time shard per worker plus the engine
// shard.
func newTelemetry(e *engine) *telemetry {
	a := e.app
	n := len(a.plan.Tasks)
	shards := e.shards()
	return &telemetry{
		wall:   a.cfg.Backend == BackendReal,
		nTasks: n,
		svc:    make([]hist, shards*n),
		wdK:    a.cfg.WatchdogEpochs,
	}
}

// recordSvc records one job's service time into the caller's shard
// (0 = engine/sim goroutine, w+1 = worker w).
//
//hinch:hotpath
func (tm *telemetry) recordSvc(shard, task int, v int64) {
	tm.svc[shard*tm.nTasks+task].record(v)
}

// stageHist merges task's per-shard service-time histograms into one
// snapshot. Safe mid-run.
func (tm *telemetry) stageHist(task int) HistSnap {
	var s HistSnap
	var buckets [histBuckets]int64
	for sh := 0; sh*tm.nTasks < len(tm.svc); sh++ {
		tm.svc[sh*tm.nTasks+task].addInto(&s, buckets[:])
	}
	top := -1
	for i, c := range buckets {
		if c > 0 {
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), buckets[:top+1]...)
	}
	return s
}

// stageJobs estimates task's executed-job count from the service-time
// histograms: exact on the sim backend (every job is recorded),
// count<<tmSampleShift on the real backend (stride sampling).
func (tm *telemetry) stageJobs(count int64) int64 {
	if tm.wall {
		return count << tmSampleShift
	}
	return count
}

// watchdogEpoch runs one stalled-progress check. It is a periodic
// control (see control.go): called at virtual watchdog boundaries on
// the sim goroutine, or under e.mu from the real backend's control
// goroutine. Must be called with mu held on the real backend.
//
//hinch:locked
func (e *engine) watchdogEpoch() {
	tm := e.tm
	r := e.retireNext.Load()
	if r != tm.wdLast {
		tm.wdLast = r
		tm.wdMisses = 0
		tm.stalled.Store(false)
		return
	}
	if e.finished() {
		// Nothing left to retire: an idle epilogue is not a stall.
		return
	}
	tm.wdMisses++
	if tm.wdMisses >= tm.wdK && !tm.stalled.Swap(true) {
		tm.stalls.Add(1)
		if e.tr != nil {
			e.tr.Emit(0, TraceEvent{
				TS: e.traceTS(nil), Kind: TraceStall,
				Worker: -1, Iter: int32(r), ID: -1, Arg: int64(tm.wdMisses),
			})
		}
	}
}

// tmNow returns the telemetry clock: virtual cycles on sim, wall
// nanoseconds since run start on real. Engine-side call sites only.
func (e *engine) tmNow() int64 {
	if e.ws == nil {
		return e.simNow
	}
	return int64(time.Since(e.trStart))
}
