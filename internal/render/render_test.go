package render

import (
	"image/color"
	"math"
	"testing"

	"github.com/edge-immersion/coic/internal/mesh"
)

func TestMat4Identity(t *testing.T) {
	v := mesh.Vec3{X: 1, Y: 2, Z: 3}
	x, y, z, w := Identity().Apply(v)
	if x != 1 || y != 2 || z != 3 || w != 1 {
		t.Fatalf("identity mangled point: %v %v %v %v", x, y, z, w)
	}
}

func TestMat4MulOrder(t *testing.T) {
	// Translate then scale vs scale then translate must differ.
	ts := Scale(2).Mul(Translate(mesh.Vec3{X: 1}))
	st := Translate(mesh.Vec3{X: 1}).Mul(Scale(2))
	x1, _, _, _ := ts.Apply(mesh.Vec3{})
	x2, _, _, _ := st.Apply(mesh.Vec3{})
	if x1 != 2 || x2 != 1 {
		t.Fatalf("composition order broken: %v %v", x1, x2)
	}
}

func TestLookAtPutsTargetOnAxis(t *testing.T) {
	view := LookAt(mesh.Vec3{Z: 5}, mesh.Vec3{}, mesh.Vec3{Y: 1})
	x, y, z, _ := view.Apply(mesh.Vec3{})
	if math.Abs(float64(x)) > 1e-5 || math.Abs(float64(y)) > 1e-5 {
		t.Fatalf("target off axis: (%v, %v, %v)", x, y, z)
	}
	if z >= 0 {
		t.Fatalf("target not in front of camera (z=%v)", z)
	}
}

func TestPerspectiveDepthOrdering(t *testing.T) {
	proj := Perspective(math.Pi/3, 1, 0.1, 100)
	_, _, zn, wn := proj.Apply(mesh.Vec3{Z: -1})
	_, _, zf, wf := proj.Apply(mesh.Vec3{Z: -50})
	if wn <= 0 || wf <= 0 {
		t.Fatalf("w not positive: %v %v", wn, wf)
	}
	if zn/wn >= zf/wf {
		t.Fatalf("NDC depth not increasing with distance: %v vs %v", zn/wn, zf/wf)
	}
}

func TestDrawProducesPixels(t *testing.T) {
	m := mesh.Generate(mesh.Spec{Name: "ball", Segments: 10, TextureSize: 8, TextureCount: 1, Seed: 1})
	r := New(96, 96)
	st := r.Draw(m, Identity(), DefaultCamera())
	if st.Triangles != len(m.Tris) {
		t.Fatalf("submitted %d of %d triangles", st.Triangles, len(m.Tris))
	}
	if st.Rasterised == 0 || st.Pixels == 0 {
		t.Fatalf("nothing rendered: %+v", st)
	}
	if st.Culled == 0 {
		t.Fatal("no back-faces culled on a closed mesh — cull broken")
	}
	// The frame must no longer be uniformly the clear colour.
	clear := color.RGBA{R: 30, G: 34, B: 40, A: 255}
	changed := 0
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			if r.Frame.At(x, y) != clear {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("framebuffer untouched")
	}
	if changed != st.Pixels {
		// Every depth-passing pixel wrote a non-clear colour exactly once
		// per final visible surface; changed can be less than Pixels
		// (overdraw) but never more.
		if changed > st.Pixels {
			t.Fatalf("more changed pixels (%d) than writes (%d)", changed, st.Pixels)
		}
	}
}

func TestDrawDeterministic(t *testing.T) {
	m := mesh.Generate(mesh.Spec{Name: "d", Segments: 8, Seed: 2})
	a, b := New(64, 64), New(64, 64)
	a.Draw(m, Identity(), DefaultCamera())
	b.Draw(m, Identity(), DefaultCamera())
	for i := range a.Frame.Pix {
		if a.Frame.Pix[i] != b.Frame.Pix[i] {
			t.Fatal("rendering not deterministic")
		}
	}
}

func TestDepthBufferOcclusion(t *testing.T) {
	// Two triangles at different depths: the nearer one must win where
	// they overlap regardless of draw order.
	tri := func(z float32, col uint8) *mesh.Mesh {
		return &mesh.Mesh{
			Name: "t",
			Verts: []mesh.Vertex{
				{Pos: mesh.Vec3{X: -1, Y: -1, Z: z}, Normal: mesh.Vec3{Z: 1}},
				{Pos: mesh.Vec3{X: 1, Y: -1, Z: z}, Normal: mesh.Vec3{Z: 1}},
				{Pos: mesh.Vec3{X: 0, Y: 1, Z: z}, Normal: mesh.Vec3{Z: 1}},
			},
			Tris:      []mesh.Triangle{{A: 0, B: 1, C: 2}},
			Materials: []mesh.Material{{Name: "m", R: col, G: col, B: col, Texture: -1}},
		}
	}
	cam := Camera{
		Eye: mesh.Vec3{Z: 5}, Target: mesh.Vec3{}, Up: mesh.Vec3{Y: 1},
		FOVY: math.Pi / 3, Near: 0.1, Far: 100,
	}
	for _, order := range [][2]*mesh.Mesh{
		{tri(0, 255), tri(2, 10)}, // far then near (near z=2 is closer to eye at z=5)
		{tri(2, 10), tri(0, 255)}, // near then far
	} {
		r := New(64, 64)
		r.Ambient = 1 // flat shading so colours are exact
		r.Draw(order[0], Identity(), cam)
		r.Draw(order[1], Identity(), cam)
		centre := r.Frame.At(32, 40)
		if centre.R != 10 {
			t.Fatalf("occlusion broken: centre = %+v", centre)
		}
	}
}

func TestBehindCameraCulled(t *testing.T) {
	m := &mesh.Mesh{
		Name: "behind",
		Verts: []mesh.Vertex{
			{Pos: mesh.Vec3{X: -1, Y: -1, Z: 10}, Normal: mesh.Vec3{Z: -1}},
			{Pos: mesh.Vec3{X: 1, Y: -1, Z: 10}, Normal: mesh.Vec3{Z: -1}},
			{Pos: mesh.Vec3{X: 0, Y: 1, Z: 10}, Normal: mesh.Vec3{Z: -1}},
		},
		Tris:      []mesh.Triangle{{A: 0, B: 1, C: 2}},
		Materials: []mesh.Material{{Name: "m", R: 1, G: 1, B: 1, Texture: -1}},
	}
	cam := Camera{Eye: mesh.Vec3{Z: 5}, Target: mesh.Vec3{Z: 6}, Up: mesh.Vec3{Y: 1}, FOVY: 1, Near: 0.1, Far: 100}
	// Camera at z=5 looking toward +z; triangle at z=10 is in front now,
	// so flip: look toward -z instead, putting it behind.
	cam.Target = mesh.Vec3{Z: 0}
	r := New(32, 32)
	st := r.Draw(m, Identity(), cam)
	if st.Pixels != 0 {
		t.Fatalf("behind-camera triangle rendered %d pixels", st.Pixels)
	}
}

func TestSampleTextureWraps(t *testing.T) {
	tex := &mesh.Texture{Name: "t", W: 2, H: 2, Pix: []uint8{
		255, 0, 0, 0, 255, 0,
		0, 0, 255, 255, 255, 255,
	}}
	r, g, b := sampleTexture(tex, 0, 0)
	if r != 255 || g != 0 || b != 0 {
		t.Fatalf("(0,0) = %d,%d,%d", r, g, b)
	}
	// u=1.25 wraps to 0.25 (first texel), v=-0.75 wraps to 0.25.
	r2, g2, b2 := sampleTexture(tex, 1.25, -0.75)
	if r2 != 255 || g2 != 0 || b2 != 0 {
		t.Fatalf("wrapped = %d,%d,%d", r2, g2, b2)
	}
}

func TestNewPanicsOnBadViewport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, 10)
}

func TestClearResetsDepth(t *testing.T) {
	m := mesh.Generate(mesh.Spec{Name: "c", Segments: 6, Seed: 3})
	r := New(48, 48)
	first := r.Draw(m, Identity(), DefaultCamera())
	r.Clear(color.RGBA{A: 255})
	second := r.Draw(m, Identity(), DefaultCamera())
	if second.Pixels != first.Pixels {
		t.Fatalf("redraw after Clear: %d pixels vs %d", second.Pixels, first.Pixels)
	}
}
