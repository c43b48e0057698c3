package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"xspcl/internal/apps"
	"xspcl/internal/kernels"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
)

// benchApp is one generated application: the XSPCL text the program
// receives, and the runtime-free fused reference the benchmark checks
// its output against and times for the speedup metric.
//
// A configuration index names one option subset the application's
// trigger can select: for PiP and JPiP, 0 is one inset picture and 1 is
// two; for Blur, 0 is the 3×3 kernel and 1 the 5×5 kernel.
type benchApp struct {
	name   string
	xml    string
	frames int // iterations per run; the sources end the stream after them
	// configs lists the configurations an output frame may be in;
	// initial is the one iteration 0 runs in.
	configs []int
	initial int
	// every and start give the trigger schedule (every == 0: static):
	// it fires at iterations start, start+every, ...
	every, start int
	// mjpeg lists the encoded inputs the program builds at set-up, for
	// timing the cold encoder from outside.
	mjpeg []mjpegInput

	// prepare builds what the reference needs beyond the spec (nil:
	// nothing); it runs once, after set-up has been timed.
	prepare func() error
	render  func(cfg, n int) *media.Frame // fused reference, one frame
	hashes  map[int][]uint64              // per configuration, per iteration
}

// mjpegInput is one mjpegsrc instance's parameters.
type mjpegInput struct {
	w, h, frames, quality int
	seed                  uint64
}

// contentSeed maps the workload seed to the content seed of the k-th
// video source of a generated spec (k = 1, 2, 3 as the paper specs
// number them). Workload seed 0 keeps the paper specs' own seeds, which
// is what ties the fused references to the sequential baselines.
func contentSeed(seed int64, k uint64) uint64 { return k + 3*uint64(seed) }

var seedAttr = regexp.MustCompile(`<init name="seed" value="(\d+)"/>`)

// reseed rewrites every source's content seed in a paper spec.
func reseed(xml string, seed int64) string {
	return seedAttr.ReplaceAllStringFunc(xml, func(m string) string {
		k, _ := strconv.ParseUint(seedAttr.FindStringSubmatch(m)[1], 10, 64)
		return fmt.Sprintf(`<init name="seed" value="%d"/>`, contentSeed(seed, k))
	})
}

// triggerFirings lists the iterations below n at which the trigger fires.
func (a *benchApp) triggerFirings(n int) []int {
	var out []int
	for i := a.start; a.every > 0 && i < n; i += a.every {
		out = append(out, i)
	}
	return out
}

// hash returns the reference hash of iteration n in configuration cfg.
func (a *benchApp) hash(cfg, n int) uint64 {
	if a.hashes == nil {
		a.hashes = map[int][]uint64{}
	}
	hs := a.hashes[cfg]
	for len(hs) <= n {
		hs = append(hs, media.Checksum(a.render(cfg, len(hs))))
	}
	a.hashes[cfg] = hs
	return hs[n]
}

// refChecksum keeps the reference's folded checksum live.
var refChecksum uint64

// timeReference runs the fused reference over iterations [from, from+n)
// in the given per-iteration configurations (indexed by iteration),
// folding each frame's checksum as the sink does, and returns the
// elapsed time.
func (a *benchApp) timeReference(cfgs []int, from, n int) time.Duration {
	t0 := time.Now()
	for i := from; i < from+n; i++ {
		refChecksum = refChecksum*1099511628211 ^ media.Checksum(a.render(cfgs[i], i))
	}
	return time.Since(t0)
}

func evenDown(n int) int { return n &^ 1 }

// insetPos returns the positions of up to two inset pictures of ow×oh
// on a w×h canvas, as the paper specs place them.
func insetPos(w, h, ow, oh int) [2][2]int {
	const margin = 16
	return [2][2]int{{evenDown(w - ow - margin), evenDown(h - oh - margin)}, {margin, margin}}
}

// pasteInset downscales src by factor into an ow×oh window of out at
// (x, y) — the fused downscale+blend the sequential baselines use.
func pasteInset(out, src *media.Frame, x, y, ow, oh, factor int) {
	for _, pl := range media.Planes {
		s, sw, sh := src.Plane(pl)
		d, dw, _ := out.Plane(pl)
		pw, ph := media.PlaneDims(pl, ow, oh)
		px, py := x, y
		if pl != media.PlaneY {
			px, py = x/2, y/2
		}
		kernels.DownscaleWindow(d, dw, px, py, pw, ph, s, sw, sh, factor, 0, ph)
	}
}

// pipApp builds a PiP variant. The reference renders the background
// straight into the output and pastes each inset picture fused.
func pipApp(name string, c apps.PiPConfig, seed int64) *benchApp {
	a := &benchApp{name: name, xml: reseed(apps.PiPSpec(c), seed), frames: c.Frames}
	a.configs, a.initial = []int{c.Pips - 1}, c.Pips-1
	if c.Reconfig {
		a.configs, a.initial, a.every, a.start = []int{0, 1}, 0, c.Every, c.Every-1
	}
	bg := media.NewGenerator(c.W, c.H, contentSeed(seed, 1))
	insets := []*media.Generator{
		media.NewGenerator(c.W, c.H, contentSeed(seed, 2)),
		media.NewGenerator(c.W, c.H, contentSeed(seed, 3)),
	}
	ow, oh := c.W/c.Factor, c.H/c.Factor
	pos := insetPos(c.W, c.H, ow, oh)
	out, inset := media.NewFrame(c.W, c.H), media.NewFrame(c.W, c.H)
	a.render = func(cfg, n int) *media.Frame {
		bg.Render(out, n%c.Frames)
		for i := 0; i <= cfg; i++ {
			insets[i].Render(inset, n%c.Frames)
			pasteInset(out, inset, pos[i][0], pos[i][1], ow, oh, c.Factor)
		}
		return out
	}
	return a
}

// jpipApp builds a JPiP variant. The reference encodes its own inputs
// with the public codec in prepare (the program encodes them again
// inside its sources) and decodes each picture whole before pasting
// the insets.
func jpipApp(name string, c apps.JPiPConfig, seed int64) *benchApp {
	a := &benchApp{name: name, xml: reseed(apps.JPiPSpec(c), seed), frames: c.Frames}
	a.configs, a.initial = []int{c.Pips - 1}, c.Pips-1
	if c.Reconfig {
		a.configs, a.initial, a.every, a.start = []int{0, 1}, 0, c.Every, c.Every-1
	}
	sources := c.Pips + 1
	if c.Reconfig {
		sources = 3
	}
	packets := make([][][]byte, sources)
	for k := range packets {
		a.mjpeg = append(a.mjpeg, mjpegInput{w: c.W, h: c.H, frames: c.Frames, quality: c.Quality, seed: contentSeed(seed, uint64(k+1))})
	}
	a.prepare = func() error {
		for k, in := range a.mjpeg {
			var err error
			if packets[k], err = mjpeg.EncodeSequence(media.GenerateSequence(in.w, in.h, in.frames, in.seed), in.quality); err != nil {
				return fmt.Errorf("%s: encode input %d: %w", name, k+1, err)
			}
		}
		return nil
	}
	ow, oh := evenDown(c.W/c.Factor), evenDown(c.H/c.Factor)
	pos := insetPos(c.W, c.H, ow, oh)
	a.render = func(cfg, n int) *media.Frame {
		out, err := mjpeg.Decode(packets[0][n%c.Frames])
		if err != nil {
			panic(fmt.Sprintf("%s: reference decode: %v", name, err)) // the benchmark's own encoder output
		}
		for i := 0; i <= cfg; i++ {
			inset, err := mjpeg.Decode(packets[i+1][n%c.Frames])
			if err != nil {
				panic(fmt.Sprintf("%s: reference decode: %v", name, err))
			}
			pasteInset(out, inset, pos[i][0], pos[i][1], ow, oh, c.Factor)
		}
		return out
	}
	return a
}

// blurApp builds a Blur variant. The reference runs the two separable
// passes over whole frames, passing chroma through.
func blurApp(name string, c apps.BlurConfig, seed int64) *benchApp {
	a := &benchApp{name: name, xml: reseed(apps.BlurSpec(c), seed), frames: c.Frames}
	tapsOf := []int{3, 5}
	a.configs, a.initial = []int{(c.Taps - 3) / 2}, (c.Taps-3)/2
	if c.Reconfig {
		a.configs, a.initial, a.every, a.start = []int{0, 1}, 0, c.Every, c.Every-1
	}
	gen := media.NewGenerator(c.W, c.H, contentSeed(seed, 1))
	vid, tmp, out := media.NewFrame(c.W, c.H), media.NewFrame(c.W, c.H), media.NewFrame(c.W, c.H)
	cw, ch := vid.CW(), vid.CH()
	a.render = func(cfg, n int) *media.Frame {
		gen.Render(vid, n%c.Frames)
		taps := tapsOf[cfg]
		kernels.BlurHPlane(tmp.Y, vid.Y, c.W, c.H, taps, 0, c.H)
		kernels.BlurVPlane(out.Y, tmp.Y, c.W, c.H, taps, 0, c.H)
		kernels.CopyPlaneRows(out.U, vid.U, cw, 0, ch)
		kernels.CopyPlaneRows(out.V, vid.V, cw, 0, ch)
		return out
	}
	return a
}
