package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xspcl/internal/components"
	"xspcl/internal/hinch"
)

// role says what a wrapped class is stamped for.
type role int

const (
	roleOther  role = iota
	roleSource      // stamps the start of each iteration's Run
	roleSink        // records each iteration's frame checksum and stamps the end
)

var roles = map[string]role{"videosrc": roleSource, "mjpegsrc": roleSource, "videosink": roleSink}

// classTimer accumulates one class's busy time over every instance,
// including stateless instances running iterations concurrently.
type classTimer struct {
	busy  atomic.Int64 // ns inside Run
	calls atomic.Int64
}

// classTimers holds one timer per registered class; the map is filled
// before any run and only read while runs execute.
type classTimers map[string]*classTimer

func newClassTimers() classTimers {
	t := classTimers{}
	for _, c := range components.DefaultRegistry().Classes() {
		t[c] = &classTimer{}
	}
	return t
}

func (t classTimers) busy() time.Duration {
	var ns int64
	for _, c := range t {
		ns += c.busy.Load()
	}
	return time.Duration(ns)
}

// sinkRecord is one frame the sink consumed.
type sinkRecord struct {
	iter int
	hash uint64
	end  time.Duration // since the probe's epoch
}

// probe collects one App's observations from its wrapped components.
type probe struct {
	epoch  time.Time
	timers classTimers // nil: classes are not timed

	// corrupt names an iteration whose output frame gets one pixel
	// flipped before the sink sees it (-1: none); it exists so a test
	// can show the output check catches a wrong frame.
	corrupt int

	mu     sync.Mutex
	starts []time.Duration // per iteration: latest source Run start (0: none)
	sinks  []sinkRecord
}

func newProbe(timers classTimers) *probe {
	return &probe{epoch: time.Now(), timers: timers, corrupt: -1}
}

func (p *probe) now() time.Duration { return time.Since(p.epoch) }

func (p *probe) sourceStarted(iter int, at time.Duration) {
	p.mu.Lock()
	for len(p.starts) <= iter {
		p.starts = append(p.starts, 0)
	}
	if at > p.starts[iter] {
		p.starts[iter] = at
	}
	p.mu.Unlock()
}

func (p *probe) sinkDone(r sinkRecord) {
	p.mu.Lock()
	p.sinks = append(p.sinks, r)
	p.mu.Unlock()
}

// records returns the sink records in iteration order.
func (p *probe) records() []sinkRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]sinkRecord(nil), p.sinks...)
	sort.Slice(out, func(i, j int) bool { return out[i].iter < out[j].iter })
	return out
}

// latencies returns, per frame the sink consumed, the time from the
// latest source Run start of its iteration to the sink Run end.
func (p *probe) latencies() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]time.Duration, 0, len(p.sinks))
	for _, r := range p.sinks {
		if r.iter < len(p.starts) && p.starts[r.iter] > 0 {
			out = append(out, r.end-p.starts[r.iter])
		}
	}
	return out
}

// registry re-registers every class of components.DefaultRegistry():
// sources and sinks are wrapped for stamping, and with timers every
// class is wrapped and timed. Unwrapped classes keep their original
// factory, so an untraced run pays nothing for them.
func (p *probe) registry() *hinch.Registry {
	base := components.DefaultRegistry()
	reg := hinch.NewRegistry()
	for _, class := range base.Classes() {
		spec, _ := base.Lookup(class)
		r := roles[class]
		t := p.timers[class]
		if r != roleOther || t != nil {
			inner := spec.New
			spec.New = func() hinch.Component { return wrap(inner(), r, t, p) }
		}
		reg.Register(class, spec)
	}
	return reg
}

// wrapped times and stamps one component instance. It adds no
// simulator charges of its own, so simulated cycles do not move.
type wrapped struct {
	inner hinch.Component
	role  role
	t     *classTimer
	p     *probe
}

// wrappedReconf forwards reconfiguration requests; wrap uses it only
// for instances that accept them, so the engine's Reconfigurable check
// sees the same answer as for the bare component.
type wrappedReconf struct {
	*wrapped
	r hinch.Reconfigurable
}

func (w wrappedReconf) Reconfigure(req string) error { return w.r.Reconfigure(req) }

func wrap(inner hinch.Component, r role, t *classTimer, p *probe) hinch.Component {
	w := &wrapped{inner: inner, role: r, t: t, p: p}
	if rc, ok := inner.(hinch.Reconfigurable); ok {
		return wrappedReconf{wrapped: w, r: rc}
	}
	return w
}

func (w *wrapped) Init(ic *hinch.InitContext) error { return w.inner.Init(ic) }

func (w *wrapped) Run(rc *hinch.RunContext) error {
	start := w.p.now()
	sink, _ := w.inner.(*components.VideoSink)
	var before uint64
	if sink != nil {
		if f, err := hinch.FrameOf(rc.In("in"), "in"); err == nil && rc.Iteration() == w.p.corrupt {
			f.Y[0] ^= 0xff
		}
		before = sink.Checksum()
	}
	err := w.inner.Run(rc)
	end := w.p.now()
	if w.t != nil {
		w.t.busy.Add(int64(end - start))
		w.t.calls.Add(1)
	}
	if err == nil {
		switch {
		case w.role == roleSource:
			w.p.sourceStarted(rc.Iteration(), start)
		case sink != nil:
			// The sink folds each frame's checksum into a running one
			// (chk = chk*p ^ h) and is stateful, so its iterations run one
			// at a time: the difference of two readings is this frame's.
			hash := sink.Checksum() ^ before*1099511628211
			w.p.sinkDone(sinkRecord{iter: rc.Iteration(), hash: hash, end: end})
		}
	}
	return err
}
