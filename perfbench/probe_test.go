package main

import (
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/components"
	"xspcl/internal/hinch"
	xlang "xspcl/internal/xspcl"
)

func smallPiP2() *benchApp {
	return pipApp("PiP-2", apps.PiPConfig{W: 128, H: 64, Frames: 12, Factor: 4, Slices: 4, Pips: 2, Every: 4}, 7)
}

func smallBlur35() *benchApp {
	return blurApp("Blur-35", apps.BlurConfig{W: 64, H: 48, Frames: 24, Slices: 4, Taps: 3, Reconfig: true, Every: 4}, 7)
}

// runBare runs a on the unwrapped default registry and returns the
// sink's checksum and the report.
func runBare(t *testing.T, a *benchApp, cfg hinch.Config) (uint64, *hinch.Report) {
	t.Helper()
	prog, err := xlang.Load(a.xml)
	if err != nil {
		t.Fatal(err)
	}
	app, err := hinch.NewApp(prog, components.DefaultRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(a.frames)
	if err != nil {
		t.Fatal(err)
	}
	return app.Component("snk").(*components.VideoSink).Checksum(), rep
}

func recordFold(recs []sinkRecord) uint64 {
	hs := make([]uint64, len(recs))
	for i, r := range recs {
		hs[i] = r.hash
	}
	return fold(hs)
}

// TestWrapperTransparent checks that wrapping every class changes
// neither the output nor, on the sim backend, the simulated cycles, and
// that the class timers count every job even when stateless instances
// run concurrently.
func TestWrapperTransparent(t *testing.T) {
	for _, cfg := range []hinch.Config{
		{Backend: hinch.BackendSim, Cores: 4},
		{Backend: hinch.BackendReal, Cores: 4, EagerWorkers: true},
	} {
		a := smallPiP2()
		bare, bareRep := runBare(t, a, cfg)
		p := newProbe(newClassTimers())
		r, err := runApp(a, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordFold(r.probe.records()); got != bare {
			t.Errorf("backend %d: wrapped sink checksum %016x, bare %016x", cfg.Backend, got, bare)
		}
		if f := r.verdict.failed(); f != 0 {
			t.Errorf("backend %d: %d frames failed the check: %+v", cfg.Backend, f, r.verdict)
		}
		if cfg.Backend == hinch.BackendSim && r.rep.Cycles != bareRep.Cycles {
			t.Errorf("sim cycles moved: wrapped %d, bare %d", r.rep.Cycles, bareRep.Cycles)
		}
		for class, tm := range p.timers {
			if got, want := tm.calls.Load(), r.rep.PerClass[class].Jobs; got != want {
				t.Errorf("backend %d: %s timed %d calls, report has %d jobs", cfg.Backend, class, got, want)
			}
		}
	}
}

// TestWrapperForwardsReconfigure checks that a wrapped instance accepts
// reconfiguration requests exactly when the bare one does.
func TestWrapperForwardsReconfigure(t *testing.T) {
	p := newProbe(newClassTimers())
	reg := p.registry()
	base := components.DefaultRegistry()
	for _, class := range base.Classes() {
		b, _ := base.Lookup(class)
		w, _ := reg.Lookup(class)
		_, bareOK := b.New().(hinch.Reconfigurable)
		_, wrappedOK := w.New().(hinch.Reconfigurable)
		if bareOK != wrappedOK {
			t.Errorf("%s: bare Reconfigurable=%v, wrapped %v", class, bareOK, wrappedOK)
		}
	}
}

// TestCorruptFrameFails is the output check's negative test: flipping
// one pixel of one iteration before the sink must fail exactly that
// frame and lower ok_frac, on a static and a reconfigurable app.
func TestCorruptFrameFails(t *testing.T) {
	for _, a := range []*benchApp{smallPiP2(), smallBlur35()} {
		p := newProbe(nil)
		p.corrupt = 5
		r, err := runApp(a, hinch.Config{Backend: hinch.BackendReal, Cores: 2}, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.verdict.wrong != 1 || r.verdict.failed() != 1 {
			t.Errorf("%s: corrupted run verdict %+v, want exactly one wrong frame", a.name, r.verdict)
		}
		out := newOutcome()
		out.add(r.verdict)
		if out.failed != 1 || out.wrong != 1 || out.attempted != a.frames {
			t.Errorf("%s: outcome %+v", a.name, out)
		}
	}
}

// TestCheckCountsEveryFailure feeds the check records with each kind of
// defect.
func TestCheckCountsEveryFailure(t *testing.T) {
	a := smallBlur35() // fires at 3, 7, 11, ...: five firings below 20
	n := 20
	good := func() []sinkRecord {
		recs := make([]sinkRecord, n)
		cfg := a.initial
		for i := range recs {
			if i >= 4 && i%4 == 0 {
				cfg = 1 - cfg // each switch lands one iteration after its firing
			}
			recs[i] = sinkRecord{iter: i, hash: a.hash(cfg, i)}
		}
		return recs
	}
	if v := check(a, good(), n); v.failed() != 0 || len(v.switchLags) != 4 {
		t.Fatalf("clean records: %+v", v)
	}
	recs := good()
	recs[6].hash ^= 1
	if v := check(a, recs, n); v.wrong != 1 {
		t.Errorf("wrong hash: %+v", v)
	}
	recs = good()
	if v := check(a, append(recs[:9:9], recs[10:]...), n); v.missing != 1 {
		t.Errorf("missing frame: %+v", v)
	}
	recs = good()
	if v := check(a, append(recs, recs[3], sinkRecord{iter: n}), n); v.duplicate != 2 {
		t.Errorf("duplicate frames: %+v", v)
	}
	recs = good()
	for i := range recs {
		recs[i].hash = a.hash(i%2, i) // 19 switches for 5 firings
	}
	if v := check(a, recs, n); v.badSwitch != 19-5 {
		t.Errorf("switches beyond the firings: %+v", v)
	}
}
