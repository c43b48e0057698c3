//go:build !race

package apps

// Golden sim numbers behind Figures 8 and 10. The sim backend is
// deterministic, so every variant's cycles, job count, L2 misses and
// reconfiguration stall are pinned byte-for-byte: a runtime change that
// moves a paper number shows up as a golden diff that must be reviewed
// (and regenerated with -update), not as silent drift.
//
// The file is left out of -race builds: the sim backend runs on one
// goroutine, so the race detector has nothing to check, and under it
// these runs take about two minutes instead of seven seconds.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figsGoldenFrames caps each variant's frame count so the whole table
// runs in seconds. 26 frames still cover two reconfigurations of the
// Fig 10 variants (they toggle every 12 frames).
const figsGoldenFrames = 26

// TestFigsSimGolden runs every Fig 8 and Fig 10 variant workless on 1
// and 4 simulated cores and compares the numbers against
// testdata/figs_sim.golden.
// Regenerate with: go test ./internal/apps -run FigsSimGolden -update
func TestFigsSimGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("variant cores frames cycles jobs l2_misses reconfigs stall\n")
	for _, v := range append(Fig8Variants(), Fig10Variants()...) {
		if v.Frames > figsGoldenFrames {
			v.Frames = figsGoldenFrames
		}
		for _, cores := range []int{1, 4} {
			rep, _, err := v.Run(SimConfig(cores, RunOptions{Workless: true}))
			if err != nil {
				t.Fatalf("%s @%d: %v", v.Name, cores, err)
			}
			fmt.Fprintf(&b, "%s %d %d %d %d %d %d %d\n", v.Name, cores, rep.Iterations,
				rep.Cycles, rep.Jobs, rep.Cache.L2Misses, rep.Reconfigs, rep.ReconfigStall)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "figs_sim.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) != got {
		t.Fatalf("sim figures drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
