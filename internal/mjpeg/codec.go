package mjpeg

import (
	"encoding/binary"
	"fmt"

	"xspcl/internal/bitio"
	"xspcl/internal/media"
)

// frameMagic starts every encoded frame.
var frameMagic = [4]byte{'X', 'J', 'F', '1'}

// Header describes an encoded frame.
type Header struct {
	W, H    int // luma dimensions; must be multiples of 8 (chroma of the 4:2:0 frame then covers whole blocks too)
	Quality int // 1..100
}

// DecodeStats summarises the entropy-decoding work of a frame; the
// SpaceCAKE cost model charges the decode component in proportion to
// the symbols and refinement bits actually decoded.
type DecodeStats struct {
	Symbols int // Huffman symbols decoded
	Bits    int // total bitstream bits consumed
	NonZero int // non-zero coefficients produced
}

// EntropyOpsPerSymbol and EntropyOpsPerBit calibrate the entropy-decode
// cost: a tree walk plus run/magnitude bookkeeping per symbol, and a
// shift/mask per bitstream bit.
const (
	EntropyOpsPerSymbol = 12
	EntropyOpsPerBit    = 2
)

// EntropyOps converts decode statistics into the arithmetic operation
// count charged by the cost model.
func EntropyOps(s DecodeStats) int64 {
	return int64(s.Symbols)*EntropyOpsPerSymbol + int64(s.Bits)*EntropyOpsPerBit
}

// EntropyOpsEstimate predicts EntropyOps for a w×h frame without
// decoding it, for workless simulation runs. The constants reflect the
// measured average density of the synthetic video at the default
// quality (~1.0 bits/pixel total, ~4 symbols per block).
func EntropyOpsEstimate(w, h int) int64 {
	pixels := int64(w*h) * 3 / 2
	blocks := pixels / 64
	return blocks*6*EntropyOpsPerSymbol + pixels*EntropyOpsPerBit
}

// CoeffPlane holds the dequantised DCT coefficients of one plane.
// The plane is W×H pixels (multiples of 8); block (bx, by) occupies
// C[(by·(W/8)+bx)·64 : +64] in natural (row-major) order.
type CoeffPlane struct {
	W, H int
	C    []int32
}

// NewCoeffPlane allocates a zeroed coefficient plane.
func NewCoeffPlane(w, h int) *CoeffPlane {
	if w%8 != 0 || h%8 != 0 {
		panic(fmt.Sprintf("mjpeg: coeff plane %dx%d not block aligned", w, h))
	}
	return &CoeffPlane{W: w, H: h, C: make([]int32, w*h)}
}

// Bytes returns the memory footprint of the plane's coefficients.
func (p *CoeffPlane) Bytes() int { return len(p.C) * 4 }

// Block returns the 64-coefficient slice of block (bx, by).
func (p *CoeffPlane) Block(bx, by int) []int32 {
	bw := p.W / 8
	off := (by*bw + bx) * 64
	return p.C[off : off+64]
}

// CoeffFrame is the output of the entropy-decode stage: one coefficient
// plane per color plane, plus the decode statistics.
type CoeffFrame struct {
	W, H   int
	Planes [3]*CoeffPlane
	Stats  DecodeStats
}

// Bytes returns the total coefficient footprint of the frame.
func (c *CoeffFrame) Bytes() int {
	n := 0
	for _, p := range c.Planes {
		n += p.Bytes()
	}
	return n
}

// Encode compresses a frame at the given quality (1..100). The frame's
// dimensions must be multiples of 16 so every 4:2:0 plane covers whole
// 8×8 blocks.
func Encode(f *media.Frame, quality int) ([]byte, error) {
	if f.W%16 != 0 || f.H%16 != 0 {
		return nil, fmt.Errorf("mjpeg: frame %dx%d not macroblock aligned", f.W, f.H)
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("mjpeg: quality %d out of range", quality)
	}
	return appendEncode(make([]byte, 0, f.Bytes()/4), f, quality)
}

// appendEncode encodes f onto dst and returns the extended slice. The
// plane bitstreams are written straight into dst through a rebound
// bitio.Writer — no per-plane scratch buffer, no copy — with each
// plane's u32 length backfilled once its size is known.
func appendEncode(dst []byte, f *media.Frame, quality int) ([]byte, error) {
	dst = append(dst, frameMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.W))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.H))
	dst = append(dst, byte(quality))
	var bw bitio.Writer
	for _, pl := range media.Planes {
		data, w, h := f.Plane(pl)
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		bw.Reset(dst)
		encodePlane(&bw, data, w, h, pl == media.PlaneY, quality)
		dst = bw.Bytes()
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

func encodePlane(bw *bitio.Writer, data []uint8, w, h int, luma bool, quality int) {
	q := quantTable(luma, quality)
	dcEnc, acEnc := dcChromaEnc, acChromaEnc
	if luma {
		dcEnc, acEnc = dcLumaEnc, acLumaEnc
	}
	var block, freq [64]int32
	pred := int32(0)
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			// Extract and level-shift.
			for y := 0; y < 8; y++ {
				row := data[(by*8+y)*w+bx*8:]
				for x := 0; x < 8; x++ {
					block[y*8+x] = int32(row[x]) - 128
				}
			}
			FDCT8x8(&freq, &block)
			// Quantise into zigzag order.
			var zz [64]int32
			for i := 0; i < 64; i++ {
				zz[i] = quantize(freq[zigzag[i]], q[zigzag[i]])
			}
			// DC: differential category coding.
			diff := zz[0] - pred
			pred = zz[0]
			cat := bitCategory(diff)
			dcEnc.encode(bw, byte(cat))
			if cat > 0 {
				bw.WriteBits(magnitudeBits(diff, cat), cat)
			}
			// AC: run/size coding with ZRL and EOB.
			run := 0
			for i := 1; i < 64; i++ {
				if zz[i] == 0 {
					run++
					continue
				}
				for run >= 16 {
					acEnc.encode(bw, 0xf0) // ZRL
					run -= 16
				}
				c := bitCategory(zz[i])
				acEnc.encode(bw, byte(run<<4)|byte(c))
				bw.WriteBits(magnitudeBits(zz[i], c), c)
				run = 0
			}
			if run > 0 {
				acEnc.encode(bw, 0x00) // EOB
			}
		}
	}
}

// ParseHeader reads the header of an encoded frame without decoding it.
func ParseHeader(data []byte) (Header, error) {
	if len(data) < 9 || [4]byte(data[:4]) != frameMagic {
		return Header{}, fmt.Errorf("mjpeg: bad frame header")
	}
	h := Header{
		W:       int(binary.BigEndian.Uint16(data[4:6])),
		H:       int(binary.BigEndian.Uint16(data[6:8])),
		Quality: int(data[8]),
	}
	if h.W <= 0 || h.H <= 0 || h.W%16 != 0 || h.H%16 != 0 || h.Quality < 1 || h.Quality > 100 {
		return Header{}, fmt.Errorf("mjpeg: invalid header %dx%d q%d", h.W, h.H, h.Quality)
	}
	return h, nil
}

// DecodeEntropy runs the entropy-decoding stage: Huffman decoding,
// run-length expansion and dequantisation. It returns the dequantised
// coefficient planes, which the IDCT stage (IDCTPlaneRows) turns into
// pixels. This split mirrors the JPiP graph of the paper's Figure 7.
func DecodeEntropy(data []byte) (*CoeffFrame, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	cf := &CoeffFrame{W: h.W, H: h.H}
	pos := 9
	for i, pl := range media.Planes {
		pw, ph := media.PlaneDims(pl, h.W, h.H)
		if pos+4 > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s length)", pl)
		}
		n := int(binary.BigEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("mjpeg: truncated frame (plane %s data)", pl)
		}
		// Every block costs at least 4 bits (a DC and an AC code of 2+
		// bits each), so a segment of n bytes holds at most 2n blocks.
		// Checking before decodePlaneEntropy allocates the plane keeps a
		// forged header from allocating w*h coefficients for no data.
		if blocks := (pw / 8) * (ph / 8); blocks > 2*n {
			return nil, fmt.Errorf("mjpeg: plane %s: %d blocks cannot fit in %d bytes", pl, blocks, n)
		}
		cp, stats, err := decodePlaneEntropy(data[pos:pos+n], pw, ph, pl == media.PlaneY, h.Quality)
		if err != nil {
			return nil, fmt.Errorf("mjpeg: plane %s: %w", pl, err)
		}
		pos += n
		cf.Planes[i] = cp
		cf.Stats.Symbols += stats.Symbols
		cf.Stats.Bits += stats.Bits
		cf.Stats.NonZero += stats.NonZero
	}
	return cf, nil
}

func decodePlaneEntropy(bits []byte, w, h int, luma bool, quality int) (*CoeffPlane, DecodeStats, error) {
	q := quantTable(luma, quality)
	dcDec, acDec := dcChromaDec, acChromaDec
	if luma {
		dcDec, acDec = dcLumaDec, acLumaDec
	}
	cp := NewCoeffPlane(w, h)
	br := bitio.NewReader(bits)
	var stats DecodeStats
	pred := int32(0)
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			blk := cp.Block(bx, by)
			// DC.
			sym, err := dcDec.decode(br)
			if err != nil {
				return nil, stats, err
			}
			stats.Symbols++
			cat := uint(sym)
			var diff int32
			if cat > 0 {
				mb, err := br.ReadBits(cat)
				if err != nil {
					return nil, stats, err
				}
				diff = extendMagnitude(mb, cat)
			}
			pred += diff
			blk[0] = pred * q[0]
			if blk[0] != 0 {
				stats.NonZero++
			}
			// AC.
			for i := 1; i < 64; {
				sym, err := acDec.decode(br)
				if err != nil {
					return nil, stats, err
				}
				stats.Symbols++
				if sym == 0x00 { // EOB
					break
				}
				if sym == 0xf0 { // ZRL
					i += 16
					continue
				}
				run := int(sym >> 4)
				c := uint(sym & 0x0f)
				i += run
				if i >= 64 {
					return nil, stats, fmt.Errorf("run overflows block")
				}
				mb, err := br.ReadBits(c)
				if err != nil {
					return nil, stats, err
				}
				nat := zigzag[i]
				blk[nat] = extendMagnitude(mb, c) * q[nat]
				stats.NonZero++
				i++
			}
		}
	}
	stats.Bits = br.BitsRead()
	return cp, stats, nil
}

// IDCTPlaneRows inverse-transforms pixel rows [r0, r1) of a coefficient
// plane into dst (a cp.W-wide byte plane). r0 and r1 must be multiples
// of 8 (or r1 == cp.H) so slices cover whole block rows: the JPiP
// application's 45 slices of a 720-row plane are 16 rows each.
func IDCTPlaneRows(dst []uint8, cp *CoeffPlane, r0, r1 int) {
	if r0%8 != 0 || (r1%8 != 0 && r1 != cp.H) {
		panic(fmt.Sprintf("mjpeg: IDCT rows [%d,%d) not block aligned", r0, r1))
	}
	var blk, pix [64]int32
	w := cp.W
	for by := r0 / 8; by < (r1+7)/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			copy(blk[:], cp.Block(bx, by))
			IDCT8x8(&pix, &blk)
			for y := 0; y < 8; y++ {
				row := dst[(by*8+y)*w+bx*8:]
				for x := 0; x < 8; x++ {
					v := pix[y*8+x] + 128
					if v < 0 {
						v = 0
					} else if v > 255 {
						v = 255
					}
					row[x] = uint8(v)
				}
			}
		}
	}
}

// Decode is the fused decoder used by the hand-written sequential
// baselines: it entropy-decodes and inverse-transforms in one pass,
// block by block, so intermediates stay in scratch memory (the cache
// behaviour the paper's sequential JPiP exhibits).
func Decode(data []byte) (*media.Frame, error) {
	cf, err := DecodeEntropy(data)
	if err != nil {
		return nil, err
	}
	return ReconstructFrame(cf), nil
}

// DecodeWithStats is Decode but also returns the entropy statistics.
func DecodeWithStats(data []byte) (*media.Frame, DecodeStats, error) {
	cf, err := DecodeEntropy(data)
	if err != nil {
		return nil, DecodeStats{}, err
	}
	return ReconstructFrame(cf), cf.Stats, nil
}

// ReconstructFrame applies the IDCT stage to all planes of a
// coefficient frame.
func ReconstructFrame(cf *CoeffFrame) *media.Frame {
	f := media.NewFrame(cf.W, cf.H)
	for i, pl := range media.Planes {
		data, _, ph := f.Plane(pl)
		IDCTPlaneRows(data, cf.Planes[i], 0, ph)
	}
	return f
}
