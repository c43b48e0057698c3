package hinch

import (
	"fmt"

	"xspcl/internal/graph"
	"xspcl/internal/media"
	"xspcl/internal/mjpeg"
	"xspcl/internal/spacecake"
)

// A Stream is the synchronous communication primitive between
// components (paper §2 item 3a): a bounded FIFO whose capacity equals
// the pipeline depth, so each in-flight iteration owns one slot. Data
// written in iteration k is read in the same iteration (ordering comes
// from the task graph) and the slot is recycled when the iteration
// retires.
//
// A Stream only describes its element and builds fresh slots: the
// engine owns the buffers themselves, one bufSet per in-flight
// iteration holding a slot of every stream (see ensureBuffers), so
// occupancy, high-water mark and the LIFO reuse of cache-hot buffers
// are decided once for all streams.
//
// Buffers for "frame" and "coeff" streams are pre-sized so that
// multiple data-parallel writers can fill disjoint regions of one
// element concurrently; "packet" and untyped streams carry whatever
// payload the producer sets.
type Stream struct {
	name string
	decl graph.StreamDecl
	idx  int // position in App.streamList and in every bufSet; TraceEvent.ID for this stream
	addr *spacecake.AddressSpace
}

type slot struct {
	payload any
	region  spacecake.Region
	// own is the frame the stream itself created for this slot (via the
	// global media free-list). Kept separately from payload so that a
	// component replacing the payload with SetOut can never cause the
	// same frame to be recycled twice: only own goes back to the
	// free-list, exactly once, when the run's buffers are drained.
	own *media.Frame
}

// Packet is the element of a "packet" stream: one variable-size unit of
// compressed data.
type Packet struct {
	Data []byte
}

// newStream builds a stream. When addr is non-nil (sim backend), each
// buffer gets a simulated address region sized for the element type.
func newStream(decl graph.StreamDecl, addr *spacecake.AddressSpace) (*Stream, error) {
	switch decl.Type {
	case "frame", "coeff":
		if decl.W <= 0 || decl.H <= 0 {
			return nil, fmt.Errorf("hinch: %s stream %q needs positive dimensions", decl.Type, decl.Name)
		}
	case "packet", "":
	default:
		return nil, fmt.Errorf("hinch: stream %q has unknown type %q", decl.Name, decl.Type)
	}
	return &Stream{name: decl.Name, decl: decl, addr: addr}, nil
}

// elementBytes returns the simulated footprint of one stream element.
func (s *Stream) elementBytes() int64 {
	switch s.decl.Type {
	case "frame":
		return int64(s.decl.W*s.decl.H) * 3 / 2
	case "coeff":
		// 4 bytes per sample over all three 4:2:0 planes.
		return int64(s.decl.W*s.decl.H) * 3 / 2 * 4
	case "packet":
		c := s.decl.Cap
		if c <= 0 {
			c = 64 << 10
		}
		return int64(c)
	}
	return 0
}

// newSlot allocates a fresh buffer. Frame payloads come from the
// global media free-list (zeroed, so contents match a fresh NewFrame)
// and return to it when the run ends and the engine drains its buffer
// sets (engine.drainFrames).
func (s *Stream) newSlot() *slot {
	sl := &slot{}
	if s.decl.Type == "frame" {
		sl.own = media.GetFrame(s.decl.W, s.decl.H)
		sl.payload = sl.own
	}
	if s.addr != nil {
		if b := s.elementBytes(); b > 0 {
			sl.region = s.addr.Alloc(b)
		}
	}
	return sl
}

// Name returns the stream's declared name.
func (s *Stream) Name() string { return s.name }

// Decl returns the stream's declaration.
func (s *Stream) Decl() graph.StreamDecl { return s.decl }

// FramePlaneRegion returns the simulated region covering rows [r0, r1)
// of the given plane within a frame stream slot region. The frame
// layout is planar Y, U, V (4:2:0).
func FramePlaneRegion(slotRegion spacecake.Region, w, h int, plane media.PlaneID, r0, r1 int) spacecake.Region {
	if r1 <= r0 {
		return spacecake.Region{}
	}
	if slotRegion.Bytes == 0 {
		return spacecake.Region{}
	}
	pw, _ := media.PlaneDims(plane, w, h)
	var base int64
	switch plane {
	case media.PlaneY:
		base = 0
	case media.PlaneU:
		base = int64(w * h)
	case media.PlaneV:
		base = int64(w*h) + int64((w/2)*(h/2))
	}
	return slotRegion.Sub(base+int64(r0*pw), int64((r1-r0)*pw))
}

// CoeffPlaneRegion returns the simulated region covering the
// coefficients of pixel rows [r0, r1) of the given plane within a coeff
// stream slot region (4 bytes per sample, planar layout).
func CoeffPlaneRegion(slotRegion spacecake.Region, w, h int, plane media.PlaneID, r0, r1 int) spacecake.Region {
	if r1 <= r0 || slotRegion.Bytes == 0 {
		return spacecake.Region{}
	}
	pw, _ := media.PlaneDims(plane, w, h)
	var base int64
	switch plane {
	case media.PlaneY:
		base = 0
	case media.PlaneU:
		base = int64(w*h) * 4
	case media.PlaneV:
		base = int64(w*h)*4 + int64((w/2)*(h/2))*4
	}
	return slotRegion.Sub(base+int64(r0*pw)*4, int64((r1-r0)*pw)*4)
}

// FrameOf extracts a *media.Frame payload, reporting a typed error for
// misuse.
func FrameOf(v any, port string) (*media.Frame, error) {
	f, ok := v.(*media.Frame)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *media.Frame", port, v)
	}
	return f, nil
}

// PacketOf extracts a *Packet payload, reporting a typed error for
// misuse.
func PacketOf(v any, port string) (*Packet, error) {
	p, ok := v.(*Packet)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *hinch.Packet", port, v)
	}
	return p, nil
}

// CoeffFrameOf extracts a *mjpeg.CoeffFrame payload, reporting a typed
// error for misuse.
func CoeffFrameOf(v any, port string) (*mjpeg.CoeffFrame, error) {
	cf, ok := v.(*mjpeg.CoeffFrame)
	if !ok {
		return nil, fmt.Errorf("hinch: port %q holds %T, want *mjpeg.CoeffFrame", port, v)
	}
	return cf, nil
}
