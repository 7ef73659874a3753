// Package vision generates the synthetic camera input for the CoIC
// reproduction. The paper's motivating example — "two safe-driving
// applications are likely to recognize the same stop sign from different
// angles at the same crossroads" — becomes: render the same object class
// under different viewpoints and verify the DNN descriptors land within
// the cache's similarity threshold, while different classes land outside
// it. Frames carry real bytes, so wire transfer sizes are honest.
package vision

import (
	"fmt"
	"image/color"
)

// Frame is an RGBA image with a flat pixel buffer (4 bytes per pixel,
// row-major). It mirrors image.RGBA but keeps this package free to encode
// deterministically and to convert to DNN tensors without interface hops.
type Frame struct {
	W, H int
	Pix  []uint8 // len = W*H*4
}

// NewFrame allocates a black, fully opaque frame.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("vision: invalid frame size %dx%d", w, h))
	}
	f := &Frame{W: w, H: h, Pix: make([]uint8, w*h*4)}
	for i := 3; i < len(f.Pix); i += 4 {
		f.Pix[i] = 0xFF
	}
	return f
}

// Set writes a pixel; out-of-bounds writes are ignored so shape drawing
// code can clip for free.
func (f *Frame) Set(x, y int, c color.RGBA) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	o := (y*f.W + x) * 4
	f.Pix[o], f.Pix[o+1], f.Pix[o+2], f.Pix[o+3] = c.R, c.G, c.B, c.A
}

// At reads a pixel; out-of-bounds reads return opaque black.
func (f *Frame) At(x, y int) color.RGBA {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return color.RGBA{A: 0xFF}
	}
	o := (y*f.W + x) * 4
	return color.RGBA{R: f.Pix[o], G: f.Pix[o+1], B: f.Pix[o+2], A: f.Pix[o+3]}
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	c := &Frame{W: f.W, H: f.H, Pix: make([]uint8, len(f.Pix))}
	copy(c.Pix, f.Pix)
	return c
}

// Fill paints the whole frame with c.
func (f *Frame) Fill(c color.RGBA) {
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			f.Set(x, y, c)
		}
	}
}

// Bytes returns the raw RGBA buffer. This is what the CoIC client uploads
// for a recognition request (camera frames are shipped uncompressed in the
// reproduction so payload size is exactly W·H·4 and experiments can dial
// request size by resolution).
func (f *Frame) Bytes() []byte { return f.Pix }

// SizeBytes reports the upload payload size.
func (f *Frame) SizeBytes() int { return len(f.Pix) }

// FromBytes returns a read-only view of a raw RGBA buffer as a w×h
// frame: Pix is pix itself, not a copy, so the frame is valid only as
// long as pix is, and must not be written to (Clone it first).
func FromBytes(w, h int, pix []byte) (*Frame, error) {
	if len(pix) != w*h*4 {
		return nil, fmt.Errorf("vision: %d bytes cannot be a %dx%d RGBA frame", len(pix), w, h)
	}
	return &Frame{W: w, H: h, Pix: pix}, nil
}

// Resize returns a nearest-neighbour rescale. Quality is irrelevant here —
// it feeds a feature extractor, and nearest keeps it deterministic and
// dependency-free.
func (f *Frame) Resize(w, h int) *Frame {
	out := NewFrame(w, h)
	for y := 0; y < h; y++ {
		sy := y * f.H / h
		for x := 0; x < w; x++ {
			sx := x * f.W / w
			out.Set(x, y, f.At(sx, sy))
		}
	}
	return out
}

// Gray returns the frame's luma plane (BT.601 weights, one byte per
// pixel), used by the on-device tracker.
func (f *Frame) Gray() []uint8 {
	out := make([]uint8, f.W*f.H)
	for i := 0; i < f.W*f.H; i++ {
		r, g, b := int(f.Pix[i*4]), int(f.Pix[i*4+1]), int(f.Pix[i*4+2])
		out[i] = uint8((299*r + 587*g + 114*b) / 1000)
	}
	return out
}
