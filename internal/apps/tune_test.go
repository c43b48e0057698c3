package apps

// Golden autotuner traces over the paper's reconfigurable variants. The
// tuner's decision sequence on the sim backend is deterministic, so it
// is pinned byte-for-byte: any change to the sampling, thresholds,
// hysteresis or epoch placement shows up as a golden diff that must be
// reviewed (and regenerated with -update), not as silent drift.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xspcl/internal/components"
	"xspcl/internal/graph"
	"xspcl/internal/hinch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden autotuner traces and sim figures")

// tuneEpoch is the epoch length for the golden runs: a frame of these
// applications costs on the order of a few million simulated cycles, so
// a 5M-cycle epoch averages over several frames — the per-epoch
// occupancy is a real duty cycle, not the spike/zero alternation a
// sub-frame epoch would sample.
const tuneEpoch = 5_000_000

// narrowBlur35 is Blur-35 with a single data-parallel slice: the
// convolution stages become hot serial tasks, so this geometry
// exercises the tuner's width knob where the paper geometry (whose
// slicing already spreads every stage thin) only moves stream depth.
func narrowBlur35() *Variant {
	cfg := DefaultBlur(3)
	cfg.Slices = 1
	cfg.Reconfig = true
	return NewBlurVariant("Blur-35-narrow", cfg)
}

// tunedVariantTrace marks every stateless stage of the variant
// replicate="auto", runs it on the sim backend with the autotuner, and
// renders the decision log one line per decision. Workless keeps the
// runs fast; the tuner's occupancy feedback comes from the op-count
// cost models either way.
func tunedVariantTrace(t *testing.T, v *Variant, cores int, epoch int64) string {
	t.Helper()
	prog, err := v.Program()
	if err != nil {
		t.Fatal(err)
	}
	reg := components.DefaultRegistry()
	marked := 0
	graph.Walk(prog.Root, func(n *graph.Node) {
		if n.Kind != graph.KindComponent || !reg.ClassStateless(n.Class) {
			return
		}
		if n.Params == nil {
			n.Params = graph.Params{}
		}
		n.Params[graph.ReplicateParam] = "auto"
		marked++
	})
	if marked == 0 {
		t.Fatalf("%s has no stateless stages to mark", v.Name)
	}
	cfg := hinch.Config{Backend: hinch.BackendSim, Cores: cores,
		Workless: true, Autotune: true, TuneEpochCycles: epoch}
	app, err := hinch.NewApp(prog, reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Run(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range rep.TuneLog {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTunedVariantGoldenTraces pins the full decision trace of the two
// reconfigurable evaluation variants against checked-in goldens.
// Regenerate with: go test ./internal/apps -run GoldenTraces -update
func TestTunedVariantGoldenTraces(t *testing.T) {
	jpip, err := VariantByName("JPiP-12")
	if err != nil {
		t.Fatal(err)
	}
	blur, err := VariantByName("Blur-35")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v      *Variant
		golden string
		cores  int
	}{
		{jpip, "tune_jpip12.golden", 4},
		{blur, "tune_blur35.golden", 4},
		{narrowBlur35(), "tune_blur35_narrow.golden", 4},
	} {
		tc := tc
		t.Run(tc.v.Name, func(t *testing.T) {
			trace := tunedVariantTrace(t, tc.v, tc.cores, tuneEpoch)
			if trace == "" {
				t.Fatalf("%s produced no tuning decisions", tc.v.Name)
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if string(want) != trace {
				t.Fatalf("decision trace drifted from %s:\n--- want ---\n%s--- got ---\n%s",
					path, want, trace)
			}
		})
	}
}

// TestTunedVariantTraceStable: five sim runs of a tuned variant produce
// byte-identical decision traces — the determinism the golden files
// rely on.
func TestTunedVariantTraceStable(t *testing.T) {
	v, err := VariantByName("JPiP-12")
	if err != nil {
		t.Fatal(err)
	}
	first := tunedVariantTrace(t, v, 4, tuneEpoch)
	for run := 1; run < 5; run++ {
		if got := tunedVariantTrace(t, v, 4, tuneEpoch); got != first {
			t.Fatalf("run %d diverged:\n--- run 0 ---\n%s--- run %d ---\n%s", run, first, run, got)
		}
	}
}
