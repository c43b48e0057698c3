package conformance

import "testing"

// FuzzConformance is the native fuzzing entry point: every fuzz input
// is a generator seed, and the whole differential battery runs on it
// (round-trip, sim determinism, sim and real vs. oracle, schedule
// perturbation). Run with:
//
//	go test ./internal/conformance/ -fuzz=FuzzConformance -fuzztime=5m
//
// A crasher's seed replays with CONFORMANCE_SEED=<n> go test -run
// TestConformanceSmoke ./internal/conformance/ -v.
func FuzzConformance(f *testing.F) {
	for _, s := range smokeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := Check(seed, Options{Workers: []int{4}, Perturb: true}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRoundTrip fuzzes only the cheap structural pipeline — generate,
// emit, reparse, compare — so it explores far more seeds per second
// than FuzzConformance.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range smokeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := roundTrip(g.Prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
