package main

import (
	"testing"

	"xspcl/internal/apps"
	"xspcl/internal/media"
)

// fold folds per-iteration hashes into a sink-style checksum.
func fold(hs []uint64) uint64 {
	var chk uint64
	for _, h := range hs {
		chk = chk*1099511628211 ^ h
	}
	return chk
}

// foldReference folds the reference's checksums of every frame of a in
// configuration cfg, as the sink folds them.
func foldReference(a *benchApp, cfg int) uint64 {
	hs := make([]uint64, a.frames)
	for i := range hs {
		hs[i] = media.Checksum(a.render(cfg, i))
	}
	return fold(hs)
}

// TestReferenceMatchesSequentialBaselines pins the fused references to
// the repository's own oracle: at workload seed 0 each one's folded
// checksum equals the hand-written sequential baseline's, in every
// configuration a workload can select.
func TestReferenceMatchesSequentialBaselines(t *testing.T) {
	for pips := 1; pips <= 2; pips++ {
		pc := apps.DefaultPiP(pips)
		pc.Frames = 6
		want, err := apps.SeqPiP(pc)
		if err != nil {
			t.Fatal(err)
		}
		if got := foldReference(pipApp("PiP", pc, 0), pips-1); got != want.Checksum {
			t.Errorf("PiP-%d: reference %016x, SeqPiP %016x", pips, got, want.Checksum)
		}

		jc := apps.DefaultJPiP(pips)
		jc.Frames = 2
		jwant, err := apps.SeqJPiP(jc)
		if err != nil {
			t.Fatal(err)
		}
		ja := jpipApp("JPiP", jc, 0)
		if err := ja.prepare(); err != nil {
			t.Fatal(err)
		}
		if got := foldReference(ja, pips-1); got != jwant.Checksum {
			t.Errorf("JPiP-%d: reference %016x, SeqJPiP %016x", pips, got, jwant.Checksum)
		}
	}
	for _, taps := range []int{3, 5} {
		bc := apps.DefaultBlur(taps)
		bc.Frames = 6
		want, err := apps.SeqBlur(bc)
		if err != nil {
			t.Fatal(err)
		}
		if got := foldReference(blurApp("Blur", bc, 0), (taps-3)/2); got != want.Checksum {
			t.Errorf("Blur-%d: reference %016x, SeqBlur %016x", taps, got, want.Checksum)
		}
	}
}

// TestSeedChangesContent checks the workload seed reaches every video
// source of the spec and the reference alike.
func TestSeedChangesContent(t *testing.T) {
	c := apps.DefaultPiP(2)
	c.Frames = 2
	a0, a1 := pipApp("PiP", c, 0), pipApp("PiP", c, 1)
	if a0.xml == a1.xml {
		t.Fatal("seed did not change the spec")
	}
	if a0.hash(1, 0) == a1.hash(1, 0) {
		t.Fatal("seed did not change the reference")
	}
	if pipApp("PiP", c, 1).xml != a1.xml {
		t.Fatal("the same seed gave different specs")
	}
}
