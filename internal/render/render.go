// Package render is a software 3D rasteriser: the "draw objects on the
// display" half of the paper's rendering task ("the renderer has to load
// the 3D model into memory first and draw objects on the display"). It is
// a classic fixed-function pipeline — model/view/projection transform,
// back-face culling, z-buffered triangle fill with Gouraud-shaded diffuse
// lighting and optional texture sampling — implemented over the vision
// Frame type so AR examples can composite annotations onto camera frames.
package render

import (
	"fmt"
	"image/color"
	"math"

	"github.com/edge-immersion/coic/internal/mesh"
	"github.com/edge-immersion/coic/internal/vision"
)

// Mat4 is a column-vector 4x4 transform matrix: y = M·x with row-major
// storage (m[row][col]).
type Mat4 [4][4]float32

// Identity returns the identity transform.
func Identity() Mat4 {
	var m Mat4
	for i := 0; i < 4; i++ {
		m[i][i] = 1
	}
	return m
}

// Mul returns a·b (apply b first, then a).
func (a Mat4) Mul(b Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var s float32
			for k := 0; k < 4; k++ {
				s += a[r][k] * b[k][c]
			}
			out[r][c] = s
		}
	}
	return out
}

// Apply transforms a point (w=1) and returns the homogeneous result.
func (a Mat4) Apply(v mesh.Vec3) (x, y, z, w float32) {
	x = a[0][0]*v.X + a[0][1]*v.Y + a[0][2]*v.Z + a[0][3]
	y = a[1][0]*v.X + a[1][1]*v.Y + a[1][2]*v.Z + a[1][3]
	z = a[2][0]*v.X + a[2][1]*v.Y + a[2][2]*v.Z + a[2][3]
	w = a[3][0]*v.X + a[3][1]*v.Y + a[3][2]*v.Z + a[3][3]
	return
}

// ApplyDir transforms a direction (w=0), for normals under rigid
// transforms.
func (a Mat4) ApplyDir(v mesh.Vec3) mesh.Vec3 {
	return mesh.Vec3{
		X: a[0][0]*v.X + a[0][1]*v.Y + a[0][2]*v.Z,
		Y: a[1][0]*v.X + a[1][1]*v.Y + a[1][2]*v.Z,
		Z: a[2][0]*v.X + a[2][1]*v.Y + a[2][2]*v.Z,
	}
}

// Translate returns a translation matrix.
func Translate(t mesh.Vec3) Mat4 {
	m := Identity()
	m[0][3], m[1][3], m[2][3] = t.X, t.Y, t.Z
	return m
}

// Scale returns a uniform scale matrix.
func Scale(s float32) Mat4 {
	m := Identity()
	m[0][0], m[1][1], m[2][2] = s, s, s
	return m
}

// LookAt builds a view matrix for a camera at eye looking at target with
// the given up hint.
func LookAt(eye, target, up mesh.Vec3) Mat4 {
	f := target.Sub(eye).Normalize() // forward
	r := f.Cross(up).Normalize()     // right
	u := r.Cross(f)                  // true up
	m := Identity()
	m[0][0], m[0][1], m[0][2] = r.X, r.Y, r.Z
	m[1][0], m[1][1], m[1][2] = u.X, u.Y, u.Z
	m[2][0], m[2][1], m[2][2] = -f.X, -f.Y, -f.Z
	m[0][3] = -r.Dot(eye)
	m[1][3] = -u.Dot(eye)
	m[2][3] = f.Dot(eye)
	return m
}

// Perspective builds a projection matrix with vertical FOV fovY (radians),
// aspect w/h, and near/far planes.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := float32(1 / math.Tan(fovY/2))
	var m Mat4
	m[0][0] = f / float32(aspect)
	m[1][1] = f
	m[2][2] = float32((far + near) / (near - far))
	m[2][3] = float32(2 * far * near / (near - far))
	m[3][2] = -1
	return m
}

// Camera bundles view parameters.
type Camera struct {
	Eye, Target, Up mesh.Vec3
	FOVY            float64 // radians
	Near, Far       float64
}

// DefaultCamera frames the unit-ish procedural models.
func DefaultCamera() Camera {
	return Camera{
		Eye:    mesh.Vec3{X: 0, Y: 1.2, Z: 3.2},
		Target: mesh.Vec3{},
		Up:     mesh.Vec3{Y: 1},
		FOVY:   60 * math.Pi / 180,
		Near:   0.1, Far: 100,
	}
}

// Stats reports what a Draw call did.
type Stats struct {
	Triangles  int // submitted
	Culled     int // back-facing or clipped
	Rasterised int // actually filled
	Pixels     int // pixels that passed the depth test
}

// Renderer rasterises meshes into an RGBA frame with a depth buffer.
type Renderer struct {
	W, H  int
	Frame *vision.Frame
	depth []float32
	// Light is the directional light (pointing from surface toward the
	// light), in world space.
	Light mesh.Vec3
	// Ambient is the floor of the diffuse term (0..1).
	Ambient float32
}

// New allocates a renderer with a sky-grey clear colour and a default
// key light.
func New(w, h int) *Renderer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid viewport %dx%d", w, h))
	}
	r := &Renderer{
		W: w, H: h,
		Frame:   vision.NewFrame(w, h),
		depth:   make([]float32, w*h),
		Light:   mesh.Vec3{X: 0.4, Y: 0.8, Z: 0.45}.Normalize(),
		Ambient: 0.25,
	}
	r.Clear(color.RGBA{R: 30, G: 34, B: 40, A: 255})
	return r
}

// Clear resets colour and depth.
func (r *Renderer) Clear(c color.RGBA) {
	r.Frame.Fill(c)
	for i := range r.depth {
		r.depth[i] = math.MaxFloat32
	}
}

// Draw rasterises m under the model transform and camera. It returns
// draw statistics (used by the experiments' compute-cost model and by
// tests to prove something was actually rendered).
func (r *Renderer) Draw(m *mesh.Mesh, model Mat4, cam Camera) Stats {
	view := LookAt(cam.Eye, cam.Target, cam.Up)
	proj := Perspective(cam.FOVY, float64(r.W)/float64(r.H), cam.Near, cam.Far)
	mv := view.Mul(model)
	mvp := proj.Mul(mv)

	var st Stats
	type projected struct {
		sx, sy, z, invW float32
		lit             float32
		u, v            float32
		visible         bool
	}
	verts := make([]projected, len(m.Verts))
	for i, v := range m.Verts {
		x, y, z, w := mvp.Apply(v.Pos)
		if w <= 0 {
			verts[i].visible = false
			continue
		}
		invW := 1 / w
		n := model.ApplyDir(v.Normal).Normalize()
		diffuse := n.Dot(r.Light)
		if diffuse < 0 {
			diffuse = 0
		}
		lit := r.Ambient + (1-r.Ambient)*diffuse
		verts[i] = projected{
			sx:      (x*invW + 1) * 0.5 * float32(r.W),
			sy:      (1 - y*invW) * 0.5 * float32(r.H),
			z:       z * invW,
			invW:    invW,
			lit:     lit,
			u:       v.U,
			v:       v.V,
			visible: true,
		}
	}

	for _, t := range m.Tris {
		st.Triangles++
		a, b, c := verts[t.A], verts[t.B], verts[t.C]
		if !a.visible || !b.visible || !c.visible {
			st.Culled++
			continue
		}
		// Screen-space back-face cull (CCW front).
		area := (b.sx-a.sx)*(c.sy-a.sy) - (c.sx-a.sx)*(b.sy-a.sy)
		if area >= 0 {
			st.Culled++
			continue
		}
		var mat *mesh.Material
		if int(t.Mat) < len(m.Materials) {
			mat = &m.Materials[t.Mat]
		}
		var tex *mesh.Texture
		if mat != nil && mat.Texture >= 0 && int(mat.Texture) < len(m.Textures) {
			tex = &m.Textures[mat.Texture]
		}
		st.Rasterised++
		st.Pixels += r.fillTriangle(a.sx, a.sy, a.z, a.lit, a.u, a.v,
			b.sx, b.sy, b.z, b.lit, b.u, b.v,
			c.sx, c.sy, c.z, c.lit, c.u, c.v, mat, tex)
	}
	return st
}

// fillTriangle rasterises one screen-space triangle with barycentric
// interpolation of depth, lighting and UVs. Returns pixels written.
func (r *Renderer) fillTriangle(
	ax, ay, az, al, au, av float32,
	bx, by, bz, bl, bu, bv float32,
	cx, cy, cz, cl, cu, cv float32,
	mat *mesh.Material, tex *mesh.Texture,
) int {
	minX := int(math.Floor(float64(min3(ax, bx, cx))))
	maxX := int(math.Ceil(float64(max3(ax, bx, cx))))
	minY := int(math.Floor(float64(min3(ay, by, cy))))
	maxY := int(math.Ceil(float64(max3(ay, by, cy))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > r.W-1 {
		maxX = r.W - 1
	}
	if maxY > r.H-1 {
		maxY = r.H - 1
	}
	denom := (by-cy)*(ax-cx) + (cx-bx)*(ay-cy)
	if denom == 0 {
		return 0
	}
	invDenom := 1 / denom

	baseR, baseG, baseB := uint8(200), uint8(200), uint8(200)
	if mat != nil {
		baseR, baseG, baseB = mat.R, mat.G, mat.B
	}

	written := 0
	for y := minY; y <= maxY; y++ {
		fy := float32(y) + 0.5
		for x := minX; x <= maxX; x++ {
			fx := float32(x) + 0.5
			w0 := ((by-cy)*(fx-cx) + (cx-bx)*(fy-cy)) * invDenom
			w1 := ((cy-ay)*(fx-cx) + (ax-cx)*(fy-cy)) * invDenom
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*az + w1*bz + w2*cz
			di := y*r.W + x
			if z >= r.depth[di] {
				continue
			}
			r.depth[di] = z
			lit := w0*al + w1*bl + w2*cl
			cr, cg, cb := baseR, baseG, baseB
			if tex != nil {
				u := w0*au + w1*bu + w2*cu
				v := w0*av + w1*bv + w2*cv
				cr, cg, cb = sampleTexture(tex, u, v)
			}
			r.Frame.Set(x, y, color.RGBA{
				R: shade(cr, lit),
				G: shade(cg, lit),
				B: shade(cb, lit),
				A: 255,
			})
			written++
		}
	}
	return written
}

// sampleTexture does nearest-neighbour sampling with wrap-around UVs.
func sampleTexture(t *mesh.Texture, u, v float32) (uint8, uint8, uint8) {
	u -= float32(math.Floor(float64(u)))
	v -= float32(math.Floor(float64(v)))
	x := int(u * float32(t.W))
	y := int(v * float32(t.H))
	if x >= t.W {
		x = t.W - 1
	}
	if y >= t.H {
		y = t.H - 1
	}
	o := (y*t.W + x) * 3
	return t.Pix[o], t.Pix[o+1], t.Pix[o+2]
}

func shade(c uint8, lit float32) uint8 {
	v := float32(c) * lit
	if v > 255 {
		v = 255
	}
	return uint8(v)
}

func min3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
