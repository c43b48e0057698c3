package main

import (
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/hinch"
)

// simCores are the simulated tile sizes of the Fig 8–10 slice.
var simCores = []int{1, 4}

// simWorkload is a slice of Figs 8–10: the reconfigurable PiP and Blur
// and the static JPiP-1, each run on the simulated tile at every size
// in simCores. Frame counts are cut from the paper's so one set of six
// runs takes seconds.
func simWorkload(seed int64) []*benchApp {
	pip := apps.DefaultPiP(1)
	pip.Reconfig, pip.Frames = true, 48
	blur := apps.DefaultBlur(3)
	blur.Reconfig = true
	jpip := apps.DefaultJPiP(1)
	jpip.Frames = 8
	return []*benchApp{
		pipApp("PiP-12", pip, seed),
		blurApp("Blur-35", blur, seed),
		jpipApp("JPiP-1", jpip, seed),
	}
}

func simConfig(cores int) hinch.Config {
	return hinch.Config{Backend: hinch.BackendSim, Cores: cores}
}

func setupSimFigs(seed int64) (time.Duration, error) {
	var total time.Duration
	for _, c := range simCores {
		d, err := timeSetup(simWorkload(seed), simConfig(c))
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// simSet is one pass over every app and tile size.
type simSet struct {
	frames int
	run    time.Duration // Σ Run wall
	total  time.Duration // Σ spec text → Run returned
	cycles map[string][]int64
	runs   []*appRun
}

func runSimSet(as []*benchApp, timers classTimers) (*simSet, error) {
	s := &simSet{cycles: map[string][]int64{}}
	for _, a := range as {
		for _, c := range simCores {
			r, err := runApp(a, simConfig(c), newProbe(timers))
			if err != nil {
				return nil, err
			}
			s.frames += r.rep.Iterations
			s.run += r.run
			s.total += r.total
			s.cycles[a.name] = append(s.cycles[a.name], r.rep.Cycles)
			s.runs = append(s.runs, r)
		}
	}
	return s, nil
}

// runSimFigs measures the sim backend. Untraced it reports wall-clock
// simulation speed and, as speedup, the simulated Fig 9 speedup (cycles
// on one core over cycles on four, geometric mean over the apps), which
// must repeat exactly. Traced it alternates untraced and traced sets.
func runSimFigs(o options) (*outcome, error) {
	out := newOutcome()
	as := simWorkload(o.seed)
	if o.trace {
		d, err := timeEncode(as...)
		if err != nil {
			return nil, err
		}
		out.values["components.encode_s"] = d.Seconds()
	} else {
		s, err := setupSamples(o, func() (time.Duration, error) { return setupSimFigs(o.seed) }, 3)
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = s
	}
	if err := prepare(as...); err != nil {
		return nil, err
	}
	if err := warmUp(func() error { _, err := runSimSet(as, nil); return err }); err != nil {
		return nil, err
	}

	var (
		fps, tracedFPS, setTimes []float64
		p50s, p99s               []float64
		sessP50s, sessP99s       []float64
		speedups                 []float64
		timers                   = newClassTimers()
		layers                   layerTotals
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(fps) < 2 || time.Now().Before(deadline) {
		s, err := runSimSet(as, nil)
		if err != nil {
			return nil, err
		}
		fps = append(fps, float64(s.frames)/s.run.Seconds())
		setTimes = append(setTimes, s.total.Seconds())
		var lat, sess []time.Duration
		for _, r := range s.runs {
			out.add(r.verdict)
			lat = append(lat, r.probe.latencies()...)
			sess = append(sess, r.total)
		}
		p50s, p99s = append(p50s, quantile(msAll(lat), 0.5)), append(p99s, quantile(msAll(lat), 0.99))
		sessP50s, sessP99s = append(sessP50s, quantile(msAll(sess), 0.5)), append(sessP99s, quantile(msAll(sess), 0.99))
		if speedups == nil {
			for _, a := range as {
				c := s.cycles[a.name]
				speedups = append(speedups, float64(c[0])/float64(c[len(c)-1]))
			}
		}
		if o.trace {
			t, err := runSimSet(as, timers)
			if err != nil {
				return nil, err
			}
			for _, r := range t.runs {
				out.add(r.verdict)
				layers.add(r)
			}
			tracedFPS = append(tracedFPS, float64(t.frames)/t.run.Seconds())
		}
	}

	v := out.values
	if o.trace {
		// The sim executes on one goroutine: its idle share is the
		// engine's own share of the wall time.
		layers.emit(out, timers, 1)
		v["hinch.sim_engine_frac"] = v["hinch.idle_frac"]
		v["hinch.trace_overhead_pct"] = 100 * (median(fps)/median(tracedFPS) - 1)
		return out, nil
	}
	v["fps"] = median(fps)
	v["frame_p50_ms"] = median(p50s)
	v["frame_p99_ms"] = median(p99s)
	v["speedup"] = geomean(speedups)
	// A session is one app run; quantiles are per set, medians over sets.
	v["session_p50_ms"] = median(sessP50s)
	v["session_p99_ms"] = median(sessP99s)
	v["max_rate"] = float64(len(as)*len(simCores)) / median(setTimes)
	return out, nil
}
