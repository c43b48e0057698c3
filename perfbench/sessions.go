package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/hinch"
	"xspcl/internal/serve"
)

// Open-loop session workload parameters. The supervisor's limits are
// sized to the host: one worker per session and no more workers in
// total than CPUs. The nominal rate is about a sixth of the capacity
// measured on a 2-CPU host (about 50 sessions/s), so its tail is set by
// contention and arrival bursts, not by an overflowing queue; the
// ladder around it gives max_rate.
const (
	nominalRate  = 8.0 // sessions per second
	latencyLimit = time.Second
	// missedLatency stands in for the latency of a refused, failed or
	// wrong session: it counts as missing the limit.
	missedLatency = 10 * latencyLimit
	queueDepth    = 16
)

// rateLadder is tried from the nominal rate, rateLadder[1]: up while
// the rate meets the limit, down while it does not. No rung sits near
// the measured capacity, where the verdict would flip between runs.
var rateLadder = []float64{nominalRate / 3, nominalRate, nominalRate * 3, nominalRate * 9}

// sessionMix is the session kinds and their weights out of 10.
var sessionMix = []int{5, 4, 1}

// sessionApps returns the session kinds in sessionMix order: short
// Blur-35, PiP-12 and JPiP-1 runs. JPiP-1 runs at a quarter of the
// paper's frame area, with half its slices, so that one session costs
// about as much as a PiP-12 one: at paper size its rare, six times
// longer sessions set every tail and memory peak on their own, and two
// runs of the same code differed by a third.
func sessionApps(seed int64) []*benchApp {
	blur := apps.DefaultBlur(3)
	blur.Reconfig, blur.Frames = true, 24
	pip := apps.DefaultPiP(1)
	pip.Reconfig, pip.Frames = true, 12
	jpip := apps.JPiPConfig{W: 640, H: 368, Frames: 2, Factor: 8, Slices: 23, Quality: 75, Pips: 1, Every: 12}
	return []*benchApp{
		blurApp("Blur-35", blur, seed),
		pipApp("PiP-12", pip, seed),
		jpipApp("JPiP-1", jpip, seed),
	}
}

func sessionConfig(traced bool) hinch.Config {
	return hinch.Config{Backend: hinch.BackendReal, Cores: 1, Telemetry: traced}
}

func setupSessions(seed int64) (time.Duration, error) {
	return timeSetup(sessionApps(seed), sessionConfig(false))
}

// arrival is one scheduled session.
type arrival struct {
	due  time.Duration // since the phase began
	kind int           // index into sessionMix
}

// schedule returns the arrivals of one open-loop phase: a Poisson
// process of the given rate conditioned on its expected count, so the
// arrival times are sorted uniform draws over the window, and a mix of
// kinds in exactly the proportions of the weights in mix, in seeded
// order. It is a pure function of its arguments.
func schedule(seed int64, rate float64, window time.Duration, mix []int) []arrival {
	n := int(rate*window.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(rate*1000)))
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	kinds := make([]int, 0, n)
	for len(kinds) < n {
		for k, w := range mix {
			for j := 0; j < w && len(kinds) < n; j++ {
				kinds = append(kinds, k)
			}
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range out {
		out[i].kind = kinds[i]
	}
	return out
}

// sessionRec is one session's observations, all taken outside the
// supervisor.
type sessionRec struct {
	arrival
	late         time.Duration // generator lateness at submission
	submitted    time.Time
	refused      bool
	factoryStart time.Time
	factoryEnd   time.Time
	done         time.Time
	outcome      serve.Outcome
	run          *appRun
}

// ok reports whether the session completed with correct output.
func (s *sessionRec) ok() bool {
	return !s.refused && s.outcome == serve.OutcomeCompleted && s.run.verdict.failed() == 0
}

// latency is from the session's due time to Wait returning, or
// missedLatency when the session did not complete correctly.
func (s *sessionRec) latency(start time.Time) time.Duration {
	if !s.ok() {
		return missedLatency
	}
	return s.done.Sub(start.Add(s.due))
}

// phase is one open-loop window at a fixed rate.
type phase struct {
	start    time.Time
	end      time.Time // last session settled
	sessions []*sessionRec
}

// runPhase submits the schedule from a single goroutine, each session
// at its due time whatever the system's state, then waits for all of
// them and checks their outputs.
func runPhase(as []*benchApp, sched []arrival, timers classTimers) (*phase, error) {
	sv := serve.New(serve.Limits{MaxSessions: runtime.NumCPU(), MaxWorkers: runtime.NumCPU(), QueueDepth: queueDepth})
	traced := timers != nil
	recs := make([]*sessionRec, len(sched))
	jobs := make([]serve.Job, len(sched))
	for i, arr := range sched {
		rec := &sessionRec{arrival: arr, run: &appRun{probe: newProbe(timers)}}
		recs[i] = rec
		a, reg := as[arr.kind], rec.run.probe.registry()
		jobs[i] = serve.Job{
			Name: fmt.Sprintf("%s-%d", a.name, i), Cores: 1, Iterations: a.frames,
			New: func() (*hinch.App, error) {
				rec.factoryStart = time.Now()
				app, err := buildApp(a.xml, reg, sessionConfig(traced), traced, rec.run)
				rec.factoryEnd = time.Now()
				return app, err
			},
		}
	}
	p := &phase{start: time.Now(), sessions: recs}
	var wg sync.WaitGroup
	for i, rec := range recs {
		due := p.start.Add(rec.due)
		time.Sleep(time.Until(due))
		rec.submitted = time.Now()
		rec.late = rec.submitted.Sub(due)
		s, err := sv.Submit(jobs[i])
		if err != nil {
			rec.refused = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcome, rep, _ := s.Wait()
			rec.done = time.Now()
			rec.outcome, rec.run.rep = outcome, rep
		}()
	}
	wg.Wait()
	p.end = time.Now()
	if st := sv.Drain(); st.Residual() != 0 {
		return nil, fmt.Errorf("supervisor lost sessions: %+v", st)
	}
	for _, rec := range recs {
		if rec.outcome == serve.OutcomeCompleted {
			rec.run.run = rec.done.Sub(rec.factoryEnd)
			rec.run.verdict = check(as[rec.kind], rec.run.probe.records(), as[rec.kind].frames)
		}
	}
	return p, nil
}

func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.sessions))
	for i, s := range p.sessions {
		out[i] = ms(s.latency(p.start))
	}
	return out
}

// meets reports whether the phase met the latency limit at its p99 with
// no session refused or failed: a growing backlog overflows the bounded
// admission queue or pushes the tail past the limit.
func (p *phase) meets() bool {
	for _, s := range p.sessions {
		if !s.ok() {
			return false
		}
	}
	return quantile(p.latenciesMs(), 0.99) <= ms(latencyLimit)
}

// serveMetrics sets the serve-layer metrics of the phase, all timed
// from outside the supervisor: queue wait (Submit to the factory
// starting), set-up (the factory) and run (factory end to Wait
// returning) of the completed sessions, and the generator's lateness.
func (p *phase) serveMetrics(v map[string]float64) {
	var queue, setup, run, late []float64
	for _, s := range p.sessions {
		late = append(late, ms(s.late))
		if s.ok() {
			queue = append(queue, ms(s.factoryStart.Sub(s.submitted)))
			setup = append(setup, ms(s.factoryEnd.Sub(s.factoryStart)))
			run = append(run, ms(s.run.run))
		}
	}
	v["serve.queue_wait_p50_ms"] = quantile(queue, 0.5)
	v["serve.queue_wait_p99_ms"] = quantile(queue, 0.99)
	v["serve.setup_ms"] = median(setup)
	v["serve.run_ms"] = median(run)
	v["serve.gen_late_ms"] = quantile(late, 0.99)
}

// serveLayers measures the serve layer for a batch workload's traced
// run: an open-loop phase of short sessions of one app at the nominal
// rate, whose outputs are checked like any other run.
func serveLayers(out *outcome, a *benchApp, seed int64, window time.Duration) error {
	p, err := runPhase([]*benchApp{a}, schedule(seed, nominalRate, window, []int{1}), nil)
	if err != nil {
		return err
	}
	for _, s := range p.sessions {
		if s.outcome == serve.OutcomeCompleted {
			out.add(s.run.verdict)
		} else {
			out.attempted += a.frames
			out.failed += a.frames
		}
	}
	p.serveMetrics(out.values)
	return nil
}

// refPerFrame times the fused reference of each session kind over its
// whole clip, with each trigger firing switching the configuration at
// once, and returns the median time per frame.
func refPerFrame(as []*benchApp) []time.Duration {
	out := make([]time.Duration, len(as))
	for k, a := range as {
		cfgs := make([]int, a.frames)
		cur, f := a.initial, a.triggerFirings(a.frames)
		for i := range cfgs {
			if len(f) > 0 && i == f[0] {
				cur, f = a.configs[(cur+1)%len(a.configs)], f[1:]
			}
			cfgs[i] = cur
		}
		var ds []float64
		for rep := 0; rep < 5; rep++ {
			d := a.timeReference(cfgs, 0, a.frames)
			ds = append(ds, float64(d)/float64(a.frames))
		}
		out[k] = time.Duration(median(ds))
	}
	return out
}

// runSessions measures the supervisor under an open loop of short
// sessions. Untraced: the nominal-rate phase gives every latency and
// throughput metric, then the ladder gives max_rate. Traced: one
// nominal-rate phase with every class timed.
func runSessions(o options) (*outcome, error) {
	out := newOutcome()
	as := sessionApps(o.seed)
	window := time.Duration(o.seconds * float64(time.Second))
	var timers classTimers
	if o.trace {
		timers = newClassTimers()
		d, err := timeEncode(as...)
		if err != nil {
			return nil, err
		}
		out.values["components.encode_s"] = d.Seconds()
	} else {
		s, err := setupSamples(o, func() (time.Duration, error) { return setupSessions(o.seed) }, 5)
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = s
	}
	if err := prepare(as...); err != nil {
		return nil, err
	}
	refBefore := refPerFrame(as)
	// Warm up on a short phase, so caches fill before the measured one.
	if _, err := runPhase(as, schedule(o.seed-1, nominalRate, window/10, sessionMix), nil); err != nil {
		return nil, err
	}

	var mem memDelta
	var p *phase
	var err error
	measure := func() { p, err = runPhase(as, schedule(o.seed, nominalRate, window, sessionMix), timers) }
	if o.trace {
		mem = measureMem(measure)
	} else {
		measure()
	}
	if err != nil {
		return nil, err
	}

	// The host's speed drifts over seconds: the reference is timed on
	// both sides of the measured phase and the two averaged.
	ref := refPerFrame(as)
	for k := range ref {
		ref[k] = (ref[k] + refBefore[k]) / 2
	}

	var (
		frames             int
		runTime            time.Duration
		p50s, p99s, ratios []float64
		layers             layerTotals
	)
	for _, s := range p.sessions {
		out.attempted++
		if !s.ok() {
			out.failed++
			if !s.refused && s.outcome == serve.OutcomeCompleted {
				out.wrong++ // completed with wrong output
			}
			continue
		}
		frames += s.run.rep.Iterations
		runTime += s.run.run
		ratios = append(ratios, float64(ref[s.kind]*time.Duration(s.run.rep.Iterations))/float64(s.run.run))
		flat := msAll(s.run.probe.latencies())
		p50s, p99s = append(p50s, quantile(flat, 0.5)), append(p99s, quantile(flat, 0.99))
		if o.trace {
			layers.add(s.run)
		}
	}
	if frames == 0 {
		return nil, fmt.Errorf("no session completed")
	}

	v := out.values
	if o.trace {
		layers.allocBytes = mem.allocBytes
		layers.gcPause = []float64{ms(mem.gcPause)}
		layers.emit(out, timers, runtime.NumCPU())
		// Idle share of the host over the whole phase, not of the
		// sessions' own run time.
		v["hinch.idle_frac"] = 1 - float64(timers.busy())/(float64(runtime.NumCPU())*float64(p.end.Sub(p.start)))
		p.serveMetrics(v)
		return out, nil
	}
	lat := p.latenciesMs()
	v["fps"] = float64(frames) / runTime.Seconds()
	// Frame latency quantiles and the speedup are taken per session,
	// then the median session's is reported.
	v["frame_p50_ms"] = median(p50s)
	v["frame_p99_ms"] = median(p99s)
	v["speedup"] = median(ratios)
	v["session_p50_ms"] = quantile(lat, 0.5)
	v["session_p99_ms"] = quantile(lat, 0.99)
	rate, err := maxRate(as, o, window, p.meets())
	if err != nil {
		return nil, err
	}
	v["max_rate"] = rate
	return out, nil
}

// maxRate walks the ladder from the nominal rate, whose verdict is
// given: up while the next rate meets the limit, down while the rate
// does not. Each probe phase lasts a third of the measured window.
// Below the ladder it reports half its lowest rate.
func maxRate(as []*benchApp, o options, window time.Duration, nominalMeets bool) (float64, error) {
	i := 1 // rateLadder[1] is the nominal rate
	probe := func(rate float64) (bool, error) {
		p, err := runPhase(as, schedule(o.seed+int64(rate), rate, window/3, sessionMix), nil)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %g sessions/s: p99 %.1f ms, meets limit: %v\n", rate, quantile(p.latenciesMs(), 0.99), p.meets())
		return p.meets(), nil
	}
	if nominalMeets {
		for i+1 < len(rateLadder) {
			ok, err := probe(rateLadder[i+1])
			if err != nil || !ok {
				return rateLadder[i], err
			}
			i++
		}
		return rateLadder[i], nil
	}
	for i > 0 {
		i--
		ok, err := probe(rateLadder[i])
		if err != nil || ok {
			return rateLadder[i], err
		}
	}
	return rateLadder[0] / 2, nil
}
