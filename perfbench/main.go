// Command perfbench is the repository's benchmark. It runs one workload
// on the public runtime API, checks every output frame against a
// runtime-free fused reference, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload jpip --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run, in which every component
// class is wrapped and timed and Config.Telemetry is on. perfbench/run.py
// builds this package and runs it; perfbench/README.md records why each
// workload and metric exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
	xlang "xspcl/internal/xspcl"
)

// endToEnd and perLayer list every metric with its unit, in the order
// BENCHMARK.json declares them; every workload prints all of them.
var endToEnd = []metricDecl{
	{"fps", "1/s"},
	{"frame_p50_ms", "ms"},
	{"frame_p99_ms", "ms"},
	{"speedup", "x"},
	{"session_p50_ms", "ms"},
	{"session_p99_ms", "ms"},
	{"max_rate", "1/s"},
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = func() []metricDecl {
	m := []metricDecl{
		{"xspcl.load_ms", "ms"},
		{"graph.validate_ms", "ms"},
		{"format.solve_ms", "ms"},
		{"hinch.newapp_ms", "ms"},
		{"components.encode_s", "s"},
	}
	for _, c := range classNames {
		m = append(m, metricDecl{"components." + c + ".busy_ms_per_frame", "ms"},
			metricDecl{"components." + c + ".calls_per_frame", "count"})
	}
	return append(m, []metricDecl{
		{"hinch.idle_frac", "fraction"},
		{"hinch.jobs_per_frame", "count"},
		{"hinch.steals_per_frame", "count"},
		{"hinch.steal_attempts_per_frame", "count"},
		{"hinch.parks_per_frame", "count"},
		{"hinch.batches_per_frame", "count"},
		{"hinch.chained_frac", "fraction"},
		{"hinch.reconfig_lag_frames", "count"},
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.setup_ms", "ms"},
		{"serve.run_ms", "ms"},
		{"serve.gen_late_ms", "ms"},
		{"hinch.sim_cycles_per_frame", "count"},
		{"hinch.sim_engine_frac", "fraction"},
		{"spacecake.l2_misses_per_frame", "count"},
		{"go.alloc_kb_per_frame", "KiB"},
		{"go.gc_pause_ms", "ms"},
		{"hinch.trace_overhead_pct", "%"},
	}...)
}()

// classNames are the classes of components.DefaultRegistry(), each
// given a busy-time and a call-count metric.
var classNames = []string{
	"videosrc", "mjpegsrc", "copyplane", "downscale", "blend",
	"jpegdecode", "idct", "blurh", "blurv", "videosink", "trigger",
}

type metricDecl struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	wrong     int // frames that failed the output check
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// add folds one run's output check into the outcome.
func (o *outcome) add(v verdict) {
	if v.failed() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %+v\n", v)
	}
	o.attempted += v.frames
	o.failed += v.failed()
	o.wrong += v.failed()
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]struct {
	run   func(o options) (*outcome, error)
	setup func(seed int64) (time.Duration, error) // spec text → runnable apps
}{
	"jpip":          {runJPiP, setupJPiP},
	"blur-reconfig": {runBlur, setupBlur},
	"sessions":      {runSessions, setupSessions},
	"sim-figs":      {runSimFigs, setupSimFigs},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var o options
	var trace int
	var setupChild bool
	flag.StringVar(&o.workload, "workload", "", "workload: jpip, blur-reconfig, sessions or sim-figs")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed: content of every video source, the session schedule and mix")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&setupChild, "setup-child", false, "time the workload's set-up once in this process and print the seconds")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	if setupChild {
		d, err := w.setup(o.seed)
		if err != nil {
			return err
		}
		fmt.Println(d.Seconds())
		return nil
	}
	out, err := w.run(o)
	if err != nil {
		return err
	}
	decls := endToEnd
	if o.trace {
		decls = perLayer
	} else {
		out.values["rss_peak_mb"] = peakRSSMB()
		if out.attempted > 0 {
			out.values["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		}
	}
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s (%v)", o.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupSamples times the workload's set-up in fresh processes: first
// runs in this process, which must not have built any app yet, and the
// rest in child processes of this binary. It returns the median.
func setupSamples(o options, first func() (time.Duration, error), n int) (float64, error) {
	d, err := first()
	if err != nil {
		return 0, err
	}
	samples := []float64{d.Seconds()}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	for len(samples) < n {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--setup-child")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			return 0, errors.New("set-up child printed nothing")
		}
		s, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		samples = append(samples, s)
	}
	return median(samples), nil
}

// appRun is one run of one App, from spec text to Run returning.
type appRun struct {
	load, validate, solve, newApp time.Duration // validate and solve only when layered
	run                           time.Duration // wall of Run
	total                         time.Duration // spec text → Run returned
	rep                           *hinch.Report
	probe                         *probe
	verdict                       verdict
	mem                           memDelta // only when layered
}

// buildApp turns spec text into a runnable App on reg. With layered
// set, Program.Validate and graph.SolveFormats are also called on their
// own (NewApp calls both again) so each layer's time shows.
func buildApp(xml string, reg *hinch.Registry, cfg hinch.Config, layered bool, r *appRun) (*hinch.App, error) {
	t0 := time.Now()
	prog, err := xlang.Load(xml)
	if err != nil {
		return nil, err
	}
	r.load = time.Since(t0)
	if layered {
		t := time.Now()
		if err := prog.Validate(reg); err != nil {
			return nil, err
		}
		r.validate = time.Since(t)
		t = time.Now()
		if _, err := graph.SolveFormats(prog, nil, reg); err != nil {
			return nil, err
		}
		r.solve = time.Since(t)
	}
	t := time.Now()
	app, err := hinch.NewApp(prog, reg, cfg)
	r.newApp = time.Since(t)
	return app, err
}

// runApp builds and runs a once on p's registry, checking its output.
// A probe with timers makes it a traced run: every class is timed,
// telemetry is on and the set-up layers and Go memory are measured
// separately.
func runApp(a *benchApp, cfg hinch.Config, p *probe) (*appRun, error) {
	r := &appRun{probe: p}
	reg := p.registry()
	layered := p.timers != nil
	cfg.Telemetry = layered
	t0 := time.Now()
	app, err := buildApp(a.xml, reg, cfg, layered, r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	t := time.Now()
	run := func() { r.rep, err = app.Run(a.frames) }
	if layered {
		r.mem = measureMem(run)
	} else {
		run()
	}
	r.run = time.Since(t)
	r.total = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	r.verdict = check(a, r.probe.records(), a.frames)
	return r, nil
}

// timeSetup times spec text → runnable App for each app in turn, on
// the bare default registry.
func timeSetup(as []*benchApp, cfg hinch.Config) (time.Duration, error) {
	var total time.Duration
	for _, a := range as {
		r := &appRun{}
		t0 := time.Now()
		if _, err := buildApp(a.xml, components.DefaultRegistry(), cfg, false, r); err != nil {
			return 0, fmt.Errorf("%s: %w", a.name, err)
		}
		total += time.Since(t0)
	}
	return total, nil
}

// warmUpTime is how long runs repeat before measuring, so caches fill,
// frame pools grow and lazy set-up finishes first.
const warmUpTime = time.Second

func warmUp(run func() error) error {
	for t0 := time.Now(); time.Since(t0) < warmUpTime; {
		if err := run(); err != nil {
			return err
		}
	}
	return nil
}

func prepare(as ...*benchApp) error {
	for _, a := range as {
		if a.prepare != nil {
			if err := a.prepare(); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerTotals accumulates the per-layer observations of traced runs.
type layerTotals struct {
	load, validate, solve, newApp []float64 // ms per App
	frames                        int
	wall                          time.Duration // Σ Run wall
	jobs                          int64
	sched                         hinch.SchedStats
	cycles, l2Misses              int64
	lags                          []int
	allocBytes                    uint64
	gcPause                       []float64 // ms per traced run
}

func (l *layerTotals) add(r *appRun) {
	l.load = append(l.load, ms(r.load))
	l.validate = append(l.validate, ms(r.validate))
	l.solve = append(l.solve, ms(r.solve))
	l.newApp = append(l.newApp, ms(r.newApp))
	l.frames += r.rep.Iterations
	l.wall += r.run
	l.jobs += r.rep.Jobs
	s := r.rep.Sched
	l.sched.Steals += s.Steals
	l.sched.StealAttempts += s.StealAttempts
	l.sched.Parks += s.Parks
	l.sched.Batches += s.Batches
	l.sched.Chained += s.Chained
	l.cycles += r.rep.Cycles
	l.l2Misses += r.rep.Cache.L2Misses
	l.lags = append(l.lags, r.verdict.switchLags...)
	l.allocBytes += r.mem.allocBytes
	l.gcPause = append(l.gcPause, ms(r.mem.gcPause))
}

// emit writes the per-layer metrics every workload shares. cores is the
// number of host CPUs the runs could use; timers hold the class busy
// time of exactly the runs added to l.
func (l *layerTotals) emit(o *outcome, timers classTimers, cores int) {
	v := o.values
	v["xspcl.load_ms"] = median(l.load)
	v["graph.validate_ms"] = median(l.validate)
	v["format.solve_ms"] = median(l.solve)
	v["hinch.newapp_ms"] = median(l.newApp)
	frames := float64(max(l.frames, 1))
	for _, c := range classNames {
		t := timers[c]
		v["components."+c+".busy_ms_per_frame"] = ms(time.Duration(t.busy.Load())) / frames
		v["components."+c+".calls_per_frame"] = float64(t.calls.Load()) / frames
	}
	if l.wall > 0 {
		v["hinch.idle_frac"] = 1 - float64(timers.busy())/(float64(cores)*float64(l.wall))
	}
	v["hinch.jobs_per_frame"] = float64(l.jobs) / frames
	v["hinch.steals_per_frame"] = float64(l.sched.Steals) / frames
	v["hinch.steal_attempts_per_frame"] = float64(l.sched.StealAttempts) / frames
	v["hinch.parks_per_frame"] = float64(l.sched.Parks) / frames
	v["hinch.batches_per_frame"] = float64(l.sched.Batches) / frames
	v["hinch.chained_frac"] = 0
	if l.jobs > 0 {
		v["hinch.chained_frac"] = float64(l.sched.Chained) / float64(l.jobs)
	}
	v["hinch.reconfig_lag_frames"] = 0
	if len(l.lags) > 0 {
		var s int
		for _, x := range l.lags {
			s += x
		}
		v["hinch.reconfig_lag_frames"] = float64(s) / float64(len(l.lags))
	}
	v["hinch.sim_cycles_per_frame"] = float64(l.cycles) / frames
	v["spacecake.l2_misses_per_frame"] = float64(l.l2Misses) / frames
	v["go.alloc_kb_per_frame"] = float64(l.allocBytes) / 1024 / frames
	v["go.gc_pause_ms"] = median(l.gcPause)
	for _, k := range []string{
		"hinch.sim_engine_frac", "hinch.trace_overhead_pct", "components.encode_s",
		"serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.setup_ms", "serve.run_ms", "serve.gen_late_ms",
	} {
		if _, ok := v[k]; !ok {
			v[k] = 0 // the layer is not used by this workload
		}
	}
}

// timeEncode times the cold encoder for every encoded input of the apps,
// through the same cached entry point the sources use; later App
// set-ups then find the encoding cached.
func timeEncode(as ...*benchApp) (time.Duration, error) {
	var t0 time.Time
	for _, a := range as {
		if len(a.mjpeg) > 0 && t0.IsZero() {
			t0 = time.Now()
		}
	}
	if t0.IsZero() {
		return 0, nil
	}
	for _, a := range as {
		for _, in := range a.mjpeg {
			if _, err := components.EncodedSequence(in.w, in.h, in.frames, in.quality, in.seed); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}
