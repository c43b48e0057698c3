package hinch

import (
	"fmt"
	"sync/atomic"

	"xspcl/internal/graph"
	"xspcl/internal/predict"
)

// The feedback autotuner closes the loop the paper's Figure 1 draws
// between the prediction tool and the running application: instead of a
// front-end reading the prediction and re-writing the specification, the
// runtime samples its own occupancy counters at fixed epochs and resizes
// the two data-parallelism knobs it owns while the application runs —
// the replica width of components declared replicate="auto", and the
// live stream-FIFO capacity (Config.StreamCapacity's runtime
// counterpart). On the sim backend epochs are virtual-time boundaries,
// so the whole decision trace is deterministic for a fixed seed; on the
// real backend the control goroutine samples under the engine lock
// (tuneEpoch is the first control on the run's control clock,
// control.go).

// TuneKind says which knob a TuneDecision turned.
type TuneKind uint8

const (
	// TuneWidth resized a task's replica width.
	TuneWidth TuneKind = iota
	// TuneDepth resized the live stream-FIFO capacity.
	TuneDepth
)

func (k TuneKind) String() string {
	if k == TuneDepth {
		return "depth"
	}
	return "width"
}

// TuneDecision is one autotuner resize, recorded in decision order.
type TuneDecision struct {
	Epoch int    // tuning epoch the decision was taken in (0-based)
	Task  int    // task ID for width decisions; -1 for depth
	Name  string // task name for width decisions; "streams" for depth
	Kind  TuneKind
	From  int
	To    int
}

func (d TuneDecision) String() string {
	return fmt.Sprintf("epoch %d: %s %s %d->%d", d.Epoch, d.Kind, d.Name, d.From, d.To)
}

// TuneStats summarises autotuner activity for the Report.
type TuneStats struct {
	Epochs      int `json:"epochs"`
	Widen       int `json:"widen"`
	Shrink      int `json:"shrink"`
	DepthRaises int `json:"depth_raises"`
	DepthDrops  int `json:"depth_drops"`
}

// Tuning thresholds. The widen threshold must exceed twice the shrink
// threshold: after a 1→2 widening a saturated task's per-replica
// occupancy halves, so 0.90/2 = 0.45 > 0.40 keeps the tuner from
// immediately undoing its own decision.
const (
	tuneWidenUtil   = 0.90 // per-replica occupancy above which a task wants widening
	tuneShrinkUtil  = 0.40 // per-replica occupancy below which a width shrinks back
	tuneIdleCeiling = 0.95 // no widening once overall core occupancy exceeds this
	tuneHysteresis  = 2    // consecutive same-direction epochs before acting
	tuneCooldown    = 2    // epochs a knob rests after a change
	tuneDepthCalm   = 3    // zero-backpressure epochs before the FIFO capacity drops
)

// tuner holds the autotuner's sampling state. The busy counters are
// written atomically by executing workers; everything else is touched
// only inside tuneEpoch (single sim goroutine, or under e.mu on the
// real backend).
type tuner struct {
	epoch int64 // epoch length: virtual cycles (sim) or wall ns (real)

	auto []int   // task IDs declared replicate="auto", ascending
	cap  []int32 // width cap per task ID (meaningful for auto tasks)

	busy  []atomic.Int64 // execution time charged per task since run start
	last  []int64        // busy snapshot at the previous epoch boundary
	delta []int64        // per-epoch scratch: busy delta this epoch

	up   []int // consecutive epochs a task has wanted widening
	down []int // consecutive epochs a task has wanted shrinking
	cool []int // epochs a task's width still rests after a change

	bufWaits  int // backpressure parks since the last epoch; guarded by mu
	bufHW     int // high-water of bufActive since the last epoch; guarded by mu
	depthCalm int // consecutive epochs without backpressure
	depthCool int // epochs the depth knob still rests after a change

	stats TuneStats
	log   []TuneDecision

	// pub is the tuner state App.Snapshot reads mid-run: stats plus the
	// tail of the decision log, republished as a fresh immutable value
	// at the end of every epoch that changed something. stats and log
	// themselves are engine-side only (sim goroutine / under mu).
	pub atomic.Pointer[TuneView]
}

// TuneView is a point-in-time copy of the autotuner's public state,
// published for mid-run snapshots.
type TuneView struct {
	Stats TuneStats      `json:"stats"`
	Tail  []TuneDecision `json:"tail"` // most recent decisions, oldest first
}

// tuneTailLen bounds the published decision-log tail.
const tuneTailLen = 32

// newTuner builds the tuner for an engine whose Config.Autotune is set.
// Widths are capped statically at min(PipelineDepth, Cores[,
// MaxReplicaWidth]) — the pipeline window bounds how many iterations of
// a task can exist, and widening past the core count only adds memory
// pressure — and, when the prediction model covers every class, at the
// model's useful width: a replica width beyond
// ceil(taskCost / max(Work/Cores, CriticalPath/PipelineDepth)) cannot
// move the steady-state bound, so the tuner never explores it.
func newTuner(e *engine) *tuner {
	a := e.app
	n := len(a.plan.Tasks)
	tu := &tuner{
		busy:  make([]atomic.Int64, n),
		last:  make([]int64, n),
		delta: make([]int64, n),
		up:    make([]int, n),
		down:  make([]int, n),
		cool:  make([]int, n),
		cap:   make([]int32, n),
	}
	if a.cfg.Backend == BackendSim {
		tu.epoch = a.cfg.TuneEpochCycles
	} else {
		tu.epoch = int64(a.cfg.TuneEpochWall)
	}
	capW := a.cfg.PipelineDepth
	if a.cfg.Cores < capW {
		capW = a.cfg.Cores
	}
	if m := a.cfg.MaxReplicaWidth; m > 0 && m < capW {
		capW = m
	}
	for _, t := range a.plan.Tasks {
		if t.Role != graph.RoleComponent {
			continue
		}
		rep, err := graph.TaskReplicate(t)
		if err != nil || !rep.Auto {
			continue
		}
		tu.auto = append(tu.auto, t.ID)
		tu.cap[t.ID] = int32(capW)
	}
	if len(tu.auto) > 0 {
		tu.consultModel(e)
	}
	return tu
}

// consultModel tightens the per-task width caps using the analytic cost
// model (internal/predict). Best effort: programs with classes outside
// the model's component library keep the static caps.
func (tu *tuner) consultModel(e *engine) {
	a := e.app
	model := predict.NewDefaultModel()
	costs := make([]int64, len(a.plan.Tasks))
	for _, t := range a.plan.Tasks {
		c, err := model.TaskCycles(a.prog, t)
		if err != nil {
			return
		}
		costs[t.ID] = c
	}
	cost := func(t *graph.Task) int64 { return costs[t.ID] }
	floor := a.plan.TotalWork(cost) / int64(a.cfg.Cores)
	if cp := a.plan.CriticalPath(cost) / int64(a.cfg.PipelineDepth); cp > floor {
		floor = cp
	}
	if floor <= 0 {
		return
	}
	for _, id := range tu.auto {
		useful := int32((costs[id] + floor - 1) / floor)
		if useful < 1 {
			useful = 1
		}
		if useful < tu.cap[id] {
			tu.cap[id] = useful
		}
	}
}

// tuneEpoch runs one decision round: sample the per-task occupancy
// accumulated since the last epoch, widen saturated auto tasks / shrink
// idle ones (with hysteresis and a post-change cooldown), and adjust the
// stream-FIFO capacity from the backpressure counters. Deterministic on
// the sim backend: it runs on the sim goroutine at virtual-time
// boundaries and sweeps tasks in ID order. Must be called with mu held
// on the real backend.
//
//hinch:locked
func (e *engine) tuneEpoch() {
	tu := e.tu
	epoch := tu.stats.Epochs
	tu.stats.Epochs++
	var total int64
	for i := range tu.busy {
		b := tu.busy[i].Load()
		tu.delta[i] = b - tu.last[i]
		tu.last[i] = b
		total += tu.delta[i]
	}
	totalUtil := float64(total) / float64(tu.epoch*int64(e.app.cfg.Cores))
	for _, id := range tu.auto {
		if tu.cool[id] > 0 {
			tu.cool[id]--
			continue
		}
		w := e.widths[id].Load()
		util := float64(tu.delta[id]) / float64(tu.epoch*int64(w))
		switch {
		case util >= tuneWidenUtil && totalUtil < tuneIdleCeiling && w < tu.cap[id]:
			tu.down[id] = 0
			tu.up[id]++
			if tu.up[id] >= tuneHysteresis {
				tu.up[id] = 0
				tu.cool[id] = tuneCooldown
				e.resizeWidth(epoch, id, int(w), int(w)+1)
			}
		case util <= tuneShrinkUtil && w > 1:
			tu.up[id] = 0
			tu.down[id]++
			if tu.down[id] >= tuneHysteresis {
				tu.down[id] = 0
				tu.cool[id] = tuneCooldown
				e.resizeWidth(epoch, id, int(w), int(w)-1)
			}
		default:
			tu.up[id], tu.down[id] = 0, 0
		}
	}
	bufCap := int(e.bufCap.Load())
	switch {
	case tu.depthCool > 0:
		tu.depthCool--
	case tu.bufWaits > 0 && bufCap < e.app.cfg.PipelineDepth:
		tu.depthCalm = 0
		tu.depthCool = tuneCooldown
		e.resizeDepth(epoch, bufCap, bufCap+1)
	case tu.bufWaits == 0 && bufCap > 1 && tu.bufHW < bufCap:
		tu.depthCalm++
		if tu.depthCalm >= tuneDepthCalm {
			tu.depthCalm = 0
			tu.depthCool = tuneCooldown
			e.resizeDepth(epoch, bufCap, bufCap-1)
		}
	default:
		tu.depthCalm = 0
	}
	tu.bufWaits = 0
	tu.bufHW = 0
	tu.publish()
}

// publish republishes the tuner's snapshot view. Engine-side (sim
// goroutine or mu held), once per epoch — the copy is off the hot path.
//
//hinch:locked
func (tu *tuner) publish() {
	v := &TuneView{Stats: tu.stats}
	tail := tu.log
	if len(tail) > tuneTailLen {
		tail = tail[len(tail)-tuneTailLen:]
	}
	v.Tail = append([]TuneDecision(nil), tail...)
	tu.pub.Store(v)
}

// resizeWidth applies one width decision: record it, trace it, and
// resize the live cross-iteration dependency distance. Must be called
// with mu held on the real backend, via tuneEpoch.
//
//hinch:locked
func (e *engine) resizeWidth(epoch, id, from, to int) {
	d := TuneDecision{Epoch: epoch, Task: id, Name: e.app.plan.Tasks[id].Name, Kind: TuneWidth, From: from, To: to}
	e.tu.log = append(e.tu.log, d)
	if to > from {
		e.tu.stats.Widen++
	} else {
		e.tu.stats.Shrink++
	}
	e.traceTune(d)
	e.setWidth(id, to)
}

// resizeDepth applies one stream-FIFO capacity decision. Must be called
// with mu held on the real backend, via tuneEpoch.
//
//hinch:locked
func (e *engine) resizeDepth(epoch, from, to int) {
	d := TuneDecision{Epoch: epoch, Task: -1, Name: "streams", Kind: TuneDepth, From: from, To: to}
	e.tu.log = append(e.tu.log, d)
	if to > from {
		e.tu.stats.DepthRaises++
	} else {
		e.tu.stats.DepthDrops++
	}
	e.traceTune(d)
	e.setBufCap(to)
}

// traceTune emits a TraceTune instant for one decision. Arg packs the
// transition as from<<32|to; Iter carries the epoch; ID the task (-1
// for the depth knob). Must be called with mu held on the real backend.
//
//hinch:locked
func (e *engine) traceTune(d TuneDecision) {
	if e.tr == nil {
		return
	}
	e.tr.Emit(0, TraceEvent{
		TS: e.traceTS(nil), Kind: TraceTune,
		Worker: -1, Iter: int32(d.Epoch), ID: int32(d.Task),
		Arg: int64(d.From)<<32 | int64(d.To),
	})
}

// setWidth publishes a new replica width for task id, then sweeps the
// in-flight window for iterations whose cross-iteration dependency the
// new width already satisfies. The sweep makes resizing sound against
// concurrent completions: a completer of iteration k-width either loads
// the new width after its done flag is set — and releases k itself — or
// its done flag was published before the sweep's read, in which case
// the sweep claims the release; crossClaim's CAS deduplicates when both
// do. Shrinks are covered by the same argument: an iteration whose
// old-width completer already fired long ago has its new back-iteration
// long done, so the sweep claims it. Must be called with mu held on the
// real backend.
//
//hinch:locked
func (e *engine) setWidth(id, width int) {
	e.widths[id].Store(int32(width))
	for k := int(e.retireNext.Load()); k < int(e.nextLaunch.Load()); k++ {
		it := e.iterAt(k)
		if it == nil {
			continue
		}
		back := e.iterAt(k - width)
		if back == nil || back.done[id].Load() {
			if it.crossClaim[id].CompareAndSwap(false, true) {
				e.release(k, it, id, nil)
			}
		}
	}
}

// setBufCap publishes a new live stream-FIFO capacity. On a raise the
// backpressured jobs re-enter the queue immediately (the two backing
// arrays rotate, as in retire, so the churn does not allocate); on a
// drop the capacity simply stops admitting new iterations until enough
// holders retire. Must be called with mu held on the real backend.
//
//hinch:locked
func (e *engine) setBufCap(c int) {
	raise := c > int(e.bufCap.Load())
	e.bufCap.Store(int32(c))
	if !raise || len(e.bufParked) == 0 {
		return
	}
	parked := e.bufParked
	e.bufParked = e.bufSpare[:0]
	for _, pj := range parked {
		e.enqueue(nil, pj)
	}
	e.bufSpare = parked[:0]
}
