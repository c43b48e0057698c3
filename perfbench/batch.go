package main

import (
	"runtime"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/hinch"
)

// blurFrames is the length of one blur-reconfig run: enough frames for
// dozens of kernel switches per run, short enough for many runs.
const blurFrames = 480

// jpipRefFrames is how many frames one timed JPiP reference pass
// covers; passes rotate through the clip.
const jpipRefFrames = 8

func jpipWorkload(seed int64) *benchApp {
	return jpipApp("JPiP-2", apps.DefaultJPiP(2), seed)
}

func blurWorkload(seed int64) *benchApp {
	c := apps.DefaultBlur(3)
	c.Reconfig = true
	c.Frames = blurFrames
	return blurApp("Blur-35", c, seed)
}

func realConfig() hinch.Config {
	return hinch.Config{Backend: hinch.BackendReal, Cores: runtime.NumCPU()}
}

func setupJPiP(seed int64) (time.Duration, error) {
	return timeSetup([]*benchApp{jpipWorkload(seed)}, realConfig())
}

func setupBlur(seed int64) (time.Duration, error) {
	return timeSetup([]*benchApp{blurWorkload(seed)}, realConfig())
}

func runJPiP(o options) (*outcome, error) {
	return runBatch(o, jpipWorkload(o.seed), 3, jpipRefFrames, nil)
}

// runBlur also measures the serve layer in its traced run, on short
// Blur-35 sessions: the sessions workload covers it under a mix, but
// its run-to-run spread is too wide to gate on.
func runBlur(o options) (*outcome, error) {
	return runBatch(o, blurWorkload(o.seed), 9, blurFrames, sessionApps(o.seed)[0])
}

// runBatch measures a batch workload: repeated runs of one app on the
// real backend, each followed by a timed pass of the fused reference
// over refFrames of the same frames in the configurations the run
// produced. Untraced, it reports the end-to-end metrics; traced, it
// alternates untraced and traced runs and reports the per-layer ones,
// then, given a session app, runs serveLayers on it for a third of the
// measured time.
func runBatch(o options, a *benchApp, setupN, refFrames int, session *benchApp) (*outcome, error) {
	out := newOutcome()
	cfg := realConfig()
	if o.trace {
		d, err := timeEncode(a)
		if err != nil {
			return nil, err
		}
		out.values["components.encode_s"] = d.Seconds()
	} else {
		s, err := setupSamples(o, func() (time.Duration, error) { return timeSetup([]*benchApp{a}, cfg) }, setupN)
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = s
	}
	if err := prepare(a); err != nil {
		return nil, err
	}
	if err := warmUp(func() error { _, err := runApp(a, cfg, newProbe(nil)); return err }); err != nil {
		return nil, err
	}

	var (
		fps, tracedFPS, ratios []float64
		p50s, p99s             []float64
		sessions               []time.Duration
		timers                 = newClassTimers()
		layers                 layerTotals
		refFrom                int
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(fps) < 3 || time.Now().Before(deadline) {
		r, err := runApp(a, cfg, newProbe(nil))
		if err != nil {
			return nil, err
		}
		out.add(r.verdict)
		f := float64(r.rep.Iterations) / r.run.Seconds()
		fps = append(fps, f)
		if o.trace {
			t, err := runApp(a, cfg, newProbe(timers))
			if err != nil {
				return nil, err
			}
			out.add(t.verdict)
			layers.add(t)
			tracedFPS = append(tracedFPS, float64(t.rep.Iterations)/t.run.Seconds())
			continue
		}
		lat := msAll(r.probe.latencies())
		p50s, p99s = append(p50s, quantile(lat, 0.5)), append(p99s, quantile(lat, 0.99))
		sessions = append(sessions, r.total)
		cfgs := r.verdict.cfgs
		for i, c := range cfgs {
			if c < 0 {
				cfgs[i] = a.initial
			}
		}
		d := a.timeReference(cfgs, refFrom, refFrames)
		refFrom = (refFrom + refFrames) % a.frames
		ratios = append(ratios, f/(float64(refFrames)/d.Seconds()))
	}

	v := out.values
	if o.trace {
		layers.emit(out, timers, cfg.Cores)
		v["hinch.trace_overhead_pct"] = 100 * (median(fps)/median(tracedFPS) - 1)
		if session != nil {
			if err := serveLayers(out, session, o.seed, time.Duration(o.seconds*float64(time.Second)/3)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	sess := msAll(sessions)
	v["fps"] = median(fps)
	// Frame latency quantiles are taken per run, then the median run's
	// is reported, so one disturbed run does not set the tail.
	v["frame_p50_ms"] = median(p50s)
	v["frame_p99_ms"] = median(p99s)
	v["speedup"] = median(ratios)
	v["session_p50_ms"] = quantile(sess, 0.5)
	v["session_p99_ms"] = quantile(sess, 0.99)
	// Closed loop: the highest rate at which back-to-back runs can be
	// submitted without a backlog is the run completion rate.
	v["max_rate"] = 1000 / quantile(sess, 0.5)
	return out, nil
}
