package hinch

import (
	"runtime"
	"sync/atomic"
	"testing"

	"xspcl/internal/graph"
)

// eosRaceHooks widens execReal's documented benign window: the
// lock-free cancelled/bufs probe happens at dispatch, and a
// concurrent noteEOS can cancel the iteration before the component's
// first stream access. Yielding at the dispatch boundary invites the
// EOS-driven cancellation into exactly that window.
type eosRaceHooks struct {
	seed uint64
	ctr  atomic.Uint64
}

func (h *eosRaceHooks) Yield(p YieldPoint) {
	if p != YieldDispatch && p != YieldComplete {
		return
	}
	if (h.ctr.Add(1)+h.seed)%5 == 0 {
		runtime.Gosched()
	}
}

func (h *eosRaceHooks) StealSeed(worker int) uint64 {
	return h.seed*0x9E3779B97F4A7C15 + uint64(worker) + 1
}

// TestEOSCancellationRaceStaysBenign pins the semantics of the real
// backend's deliberate dispatch race (see execReal in real.go): a
// component job may observe cancelled==false just before EOS cancels
// its iteration and run redundantly. That is allowed — but it must
// stay benign:
//
//   - Report.Iterations is exactly the source's frame count;
//   - the sink's first `frames` records are the correct values in
//     iteration order (cross-iteration instance ordering survives);
//   - redundant post-EOS sink runs are bounded by one pipeline window.
//
// Run under -race at 8 workers this also asserts the window is free of
// data races (CI runs this package with -race).
func TestEOSCancellationRaceStaysBenign(t *testing.T) {
	const frames = 12
	const depth = 6
	b := graph.NewBuilder("eosrace")
	b.Stream("a").Stream("b")
	b.Body(
		b.Component("src", "intsrc", graph.Ports{"out": "a"}, graph.Params{"frames": "12"}),
		b.Component("dbl", "double", graph.Ports{"in": "a", "out": "b"}, nil),
		b.Component("snk", "intsink", graph.Ports{"in": "b"}, nil),
	)
	prog := b.MustProgram()
	for run := 0; run < 40; run++ {
		app, err := NewApp(prog, testRegistry(), Config{
			Backend:        BackendReal,
			Cores:          8,
			PipelineDepth:  depth,
			StreamCapacity: 4,
			Hooks:          &eosRaceHooks{seed: uint64(run)},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := app.Run(-1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Iterations != frames {
			t.Fatalf("run %d: %d iterations, want %d", run, rep.Iterations, frames)
		}
		vals := app.Component("snk").(*intSink).values()
		if len(vals) < frames {
			t.Fatalf("run %d: sink saw only %d values", run, len(vals))
		}
		if len(vals) > frames+depth+1 {
			t.Fatalf("run %d: cancelled tail leaked %d extra sink runs (max %d)", run, len(vals)-frames, depth+1)
		}
		// The processed prefix must be exact and ordered; values of the
		// redundant tail (cancelled iterations racing their skip) are
		// unspecified and ignored.
		for i := 0; i < frames; i++ {
			if vals[i] != 2*i {
				t.Fatalf("run %d: vals[%d] = %d, want %d", run, i, vals[i], 2*i)
			}
		}
	}
}
