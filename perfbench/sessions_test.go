package main

import (
	"reflect"
	"testing"
	"time"
)

// TestScheduleIsPureFunctionOfSeed checks the open-loop schedule: the
// same seed gives the same arrivals, another seed other ones, and every
// schedule is sorted, inside its window and in the exact mix.
func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	const window = 10 * time.Second
	a, b := schedule(3, nominalRate, window, sessionMix), schedule(3, nominalRate, window, sessionMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(4, nominalRate, window, sessionMix)) {
		t.Fatal("another seed gave the same schedule")
	}
	if want := int(nominalRate * window.Seconds()); len(a) != want {
		t.Fatalf("%d arrivals, want %d", len(a), want)
	}
	counts := make([]int, len(sessionMix))
	for i, arr := range a {
		if arr.due < 0 || arr.due >= window || (i > 0 && arr.due < a[i-1].due) {
			t.Fatalf("arrival %d at %v: unsorted or outside the window", i, arr.due)
		}
		counts[arr.kind]++
	}
	for k, w := range sessionMix {
		if want := len(a) * w / 10; counts[k] != want {
			t.Errorf("kind %d: %d sessions, want %d", k, counts[k], want)
		}
	}
}

// TestRunPhaseChecksSessions runs a short open-loop phase of small
// sessions, several at once, and requires every session to complete
// with correct output and the serve-layer metrics to be measured.
func TestRunPhaseChecksSessions(t *testing.T) {
	a := smallBlur35()
	p, err := runPhase([]*benchApp{a}, schedule(1, 40, 500*time.Millisecond, []int{1}), newClassTimers())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sessions) != 20 {
		t.Fatalf("%d sessions, want 20", len(p.sessions))
	}
	for i, s := range p.sessions {
		if !s.ok() {
			t.Errorf("session %d: refused %v, outcome %q, verdict %+v", i, s.refused, s.outcome, s.run.verdict)
		}
	}
	v := map[string]float64{}
	p.serveMetrics(v)
	if v["serve.run_ms"] <= 0 || v["serve.setup_ms"] <= 0 {
		t.Errorf("serve metrics not measured: %v", v)
	}
}
