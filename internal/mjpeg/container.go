package mjpeg

import (
	"encoding/binary"
	"fmt"
	"io"

	"xspcl/internal/media"
)

// containerMagic starts every motion-JPEG container stream.
var containerMagic = [4]byte{'X', 'M', 'J', '1'}

// WriteContainer writes encoded frames to w as a simple length-prefixed
// motion-JPEG container: magic, frame count, then (length, bytes) per
// frame.
func WriteContainer(w io.Writer, frames [][]byte) error {
	if _, err := w.Write(containerMagic[:]); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frames)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, f := range frames {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// ReadContainer reads all encoded frames from a container stream.
func ReadContainer(r io.Reader) ([][]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("mjpeg: container magic: %w", err)
	}
	if hdr != containerMagic {
		return nil, fmt.Errorf("mjpeg: bad container magic %q", hdr[:])
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("mjpeg: container count: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	// The count is untrusted: presize for at most a modest container
	// and let append grow with the frames actually present, so a forged
	// count cannot allocate ahead of the input.
	frames := make([][]byte, 0, min(n, 1024))
	// Frame buffers are carved out of a shared arena instead of
	// allocated one make([]byte, sz) at a time: each arena chunk is
	// sized to cover ~16 frames at the current frame size, and frames
	// are disjoint full-capacity subslices of it, so a 1000-frame
	// container costs dozens of allocations rather than a thousand.
	var arena []byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("mjpeg: frame %d length: %w", i, err)
		}
		sz := int(binary.BigEndian.Uint32(hdr[:]))
		if sz > len(arena) {
			chunk := sz * 16
			const maxChunk = 4 << 20
			if chunk > maxChunk {
				chunk = maxChunk
			}
			if chunk < sz {
				chunk = sz
			}
			arena = make([]byte, chunk)
		}
		buf := arena[:sz:sz]
		arena = arena[sz:]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("mjpeg: frame %d data: %w", i, err)
		}
		frames = append(frames, buf)
	}
	return frames, nil
}

// EncodeSequence encodes a frame sequence at the given quality. Each
// frame's output buffer is presized from the previous frame's encoded
// length (frames of a sequence compress to near-identical sizes), so
// steady-state encoding does one exact-size allocation per frame
// instead of log-many append regrowths.
func EncodeSequence(frames []*media.Frame, quality int) ([][]byte, error) {
	out := make([][]byte, len(frames))
	hint := 0
	for i, f := range frames {
		if hint == 0 {
			hint = f.Bytes() / 4
		}
		enc, err := appendEncode(make([]byte, 0, hint), f, quality)
		if err != nil {
			return nil, fmt.Errorf("mjpeg: frame %d: %w", i, err)
		}
		out[i] = enc
		hint = len(enc) + len(enc)/8
	}
	return out, nil
}
