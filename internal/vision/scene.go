package vision

import (
	"image/color"
	"math"

	"github.com/edge-immersion/coic/internal/tensor"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Class identifies an object category the recognition DNN can label. The
// set matches the AR scenarios in the paper's motivation: road objects for
// safe-driving apps, avatars for Pokemon-Go-style games.
type Class int

// Recognisable object classes.
const (
	ClassStopSign Class = iota
	ClassCar
	ClassAvatar
	ClassTree
	ClassBuilding
	ClassTrafficLight
	ClassPerson
	ClassDog
	NumClasses // count sentinel
)

// ClassNames lists the class labels in Class order.
var ClassNames = []string{
	"stop-sign", "car", "avatar", "tree", "building", "traffic-light", "person", "dog",
}

// String returns the class label.
func (c Class) String() string {
	if c < 0 || int(c) >= len(ClassNames) {
		return "unknown"
	}
	return ClassNames[c]
}

// View describes the circumstances under which an object is observed: the
// knobs that vary between two users looking at the same thing. Two frames
// of the same class under different Views must still produce nearby
// descriptors; that is the redundancy CoIC exploits.
type View struct {
	// Angle rotates the object around its centre, in radians.
	Angle float64
	// Scale multiplies the object's base size (1 = nominal).
	Scale float64
	// OffsetX/OffsetY shift the object centre as a fraction of frame
	// size (0 = centred, ±0.2 = noticeable parallax).
	OffsetX, OffsetY float64
	// Brightness scales all pixel intensities (1 = nominal).
	Brightness float64
	// Noise is the amplitude of per-pixel uniform noise in [0, 255].
	Noise float64
	// Seed drives the noise pattern.
	Seed uint64
}

// CanonicalView is the straight-on reference viewpoint.
func CanonicalView() View {
	return View{Scale: 1, Brightness: 1}
}

// RandomView draws a plausible alternative viewpoint of the same object:
// bounded rotation, scale, parallax, lighting and sensor noise.
func RandomView(rng *xrand.RNG) View {
	return View{
		Angle:      rng.Range(-0.35, 0.35),
		Scale:      rng.Range(0.85, 1.15),
		OffsetX:    rng.Range(-0.08, 0.08),
		OffsetY:    rng.Range(-0.08, 0.08),
		Brightness: rng.Range(0.85, 1.15),
		Noise:      rng.Range(0, 12),
		Seed:       rng.Uint64(),
	}
}

// classPalette returns the background and primary colours for a class.
// Each class lives in a distinct scene context (a crossroads, a park, a
// street canyon...), so backgrounds are strongly separated in colour
// space. This mirrors reality — different objects are encountered in
// different surroundings — and it is what gives the fixed-weight CNN's
// global descriptor its class separation (the A-threshold ablation
// quantifies the margin).
func classPalette(c Class) (bg, fg, accent color.RGBA) {
	palettes := [...][3]color.RGBA{
		ClassStopSign:     {{20, 40, 120, 255}, {210, 30, 30, 255}, {245, 245, 245, 255}},
		ClassCar:          {{205, 125, 35, 255}, {30, 60, 190, 255}, {225, 225, 235, 255}},
		ClassAvatar:       {{30, 145, 60, 255}, {245, 205, 40, 255}, {250, 120, 30, 255}},
		ClassTree:         {{170, 60, 170, 255}, {40, 145, 50, 255}, {100, 70, 40, 255}},
		ClassBuilding:     {{55, 200, 200, 255}, {140, 140, 155, 255}, {60, 80, 120, 255}},
		ClassTrafficLight: {{125, 125, 25, 255}, {40, 40, 45, 255}, {235, 205, 50, 255}},
		ClassPerson:       {{235, 170, 195, 255}, {150, 60, 110, 255}, {250, 225, 190, 255}},
		ClassDog:          {{95, 50, 25, 255}, {205, 170, 120, 255}, {245, 235, 215, 255}},
	}
	p := palettes[c]
	return p[0], p[1], p[2]
}

// RenderObject draws one object of class c as seen under view v into a
// fresh w×h frame. Rendering is pure: identical arguments produce
// identical frames, which is what makes descriptor-keyed caching testable.
func RenderObject(c Class, v View, w, h int) *Frame {
	f := NewFrame(w, h)
	bg, fg, accent := classPalette(c)
	f.Fill(bg)

	// Each float64(...) rounds a product (or a halving, which the
	// compiler makes one) on its own, so no architecture fuses it into an
	// add (an FMA rounds once): every GOARCH draws the same pixels.
	fw, fh := float64(w), float64(h)
	cx := float64(fw/2) + float64(v.OffsetX*fw)
	cy := float64(fh/2) + float64(v.OffsetY*fh)
	r := 0.3 * v.Scale * float64(min(w, h))
	cosA, sinA := math.Cos(v.Angle), math.Sin(v.Angle)

	// inShape tests whether object-local coordinates fall inside the
	// class's shape. Coordinates are normalised so the shape spans
	// [-1, 1].
	inShape := func(u, q float64) (bool, color.RGBA) {
		switch c {
		case ClassStopSign:
			// Octagon with a light horizontal bar.
			if math.Abs(u)+math.Abs(q) < 1.35 && math.Abs(u) < 1 && math.Abs(q) < 1 {
				if math.Abs(q) < 0.18 {
					return true, accent
				}
				return true, fg
			}
		case ClassCar:
			// Wide body with accent roof.
			if math.Abs(u) < 1 && math.Abs(q) < 0.45 {
				return true, fg
			}
			if math.Abs(u) < 0.55 && q > -0.85 && q < -0.45 {
				return true, accent
			}
		case ClassAvatar:
			// Round head over triangular torso.
			if sumSq(u, q+0.45) < 0.3*0.3 {
				return true, accent
			}
			if q > -0.2 && q < 1 && math.Abs(u) < (q+0.2)*0.7 {
				return true, fg
			}
		case ClassTree:
			// Canopy disc over a trunk.
			if sumSq(u, q+0.25) < 0.65*0.65 {
				return true, fg
			}
			if math.Abs(u) < 0.12 && q >= 0.2 && q < 1 {
				return true, accent
			}
		case ClassBuilding:
			// Tall slab with a window grid.
			if math.Abs(u) < 0.6 && math.Abs(q) < 1 {
				wu := int(math.Floor((u + 0.6) / 0.3))
				wq := int(math.Floor((q + 1) / 0.33))
				if (wu+wq)%2 == 0 {
					return true, accent
				}
				return true, fg
			}
		case ClassTrafficLight:
			// Narrow housing with three stacked lamps.
			if math.Abs(u) < 0.3 && math.Abs(q) < 1 {
				for i, lamp := range []color.RGBA{{220, 50, 50, 255}, {230, 200, 50, 255}, {60, 200, 80, 255}} {
					ly := -0.6 + float64(float64(i)*0.6)
					if sumSq(u, q-ly) < 0.2*0.2 {
						return true, lamp
					}
				}
				return true, fg
			}
		case ClassPerson:
			// Head over rectangular body.
			if sumSq(u, q+0.6) < 0.25*0.25 {
				return true, accent
			}
			if math.Abs(u) < 0.35 && q > -0.35 && q < 1 {
				return true, fg
			}
		case ClassDog:
			// Horizontal body, head blob, legs.
			if math.Abs(u) < 0.8 && math.Abs(q) < 0.35 {
				return true, fg
			}
			if sumSq(u-0.8, q+0.25) < 0.3*0.3 {
				return true, accent
			}
			if q >= 0.35 && q < 0.85 && (math.Abs(u-0.55) < 0.1 || math.Abs(u+0.55) < 0.1) {
				return true, fg
			}
		}
		return false, color.RGBA{}
	}

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Frame coords -> object-local rotated coords.
			dx, dy := float64(x)-cx, float64(y)-cy
			u := (float64(dx*cosA) + float64(dy*sinA)) / r
			q := (float64(-dx*sinA) + float64(dy*cosA)) / r
			if ok, col := inShape(u, q); ok {
				f.Set(x, y, col)
			}
		}
	}

	applyBrightness(f, v.Brightness)
	applyNoise(f, v.Noise, v.Seed)
	return f
}

// sumSq is a*a + b*b with each product rounded on its own (see
// RenderObject).
func sumSq(a, b float64) float64 { return float64(a*a) + float64(b*b) }

func applyBrightness(f *Frame, b float64) {
	if b == 1 || b <= 0 {
		return
	}
	for i, p := range f.Pix {
		if i%4 == 3 {
			continue // alpha
		}
		v := float64(p) * b
		if v > 255 {
			v = 255
		}
		f.Pix[i] = uint8(v)
	}
}

func applyNoise(f *Frame, amp float64, seed uint64) {
	if amp <= 0 {
		return
	}
	rng := xrand.New(seed)
	for i := range f.Pix {
		if i%4 == 3 {
			continue
		}
		v := float64(f.Pix[i]) + rng.Range(-amp, amp)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		f.Pix[i] = uint8(v)
	}
}

// ToTensor converts a frame to a CHW float32 tensor scaled to [0, 1],
// resized to side×side — the DNN's expected input.
func ToTensor(f *Frame, side int) *tensor.Tensor {
	r := f
	if f.W != side || f.H != side {
		r = f.Resize(side, side)
	}
	t := tensor.New(3, side, side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			o := (y*side + x) * 4
			t.Data[0*side*side+y*side+x] = float32(r.Pix[o]) / 255
			t.Data[1*side*side+y*side+x] = float32(r.Pix[o+1]) / 255
			t.Data[2*side*side+y*side+x] = float32(r.Pix[o+2]) / 255
		}
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
