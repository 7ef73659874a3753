package mesh

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// OBJX is the text "source" format, modelled on Wavefront OBJ with the
// textures embedded (hex) so a model is a single self-contained blob. It
// is what the cloud's model repository stores and serves in the Origin
// baseline. Deliberately heavier than CMF on both axes that matter for
// Figure 2b: byte size (decimal text vs packed binary) and load cost
// (tokenising and float parsing vs memcpy).
//
//	o <name>
//	newmat <name> <r> <g> <b> <texIndex>
//	tex <name> <w> <h> <hex...>          (hex may wrap across lines ending with '\')
//	v <x> <y> <z>
//	vn <x> <y> <z>
//	vt <u> <v>
//	usemat <index>
//	f <a> <b> <c>                        (1-based vertex indices; v/vn/vt parallel)
var ErrBadOBJX = errors.New("mesh: malformed OBJX")

// EncodeOBJX serialises a mesh as OBJX text.
func EncodeOBJX(m *Mesh) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	fmt.Fprintf(w, "# OBJX source model\no %s\n", sanitizeName(m.Name))
	for _, mat := range m.Materials {
		fmt.Fprintf(w, "newmat %s %d %d %d %d\n", sanitizeName(mat.Name), mat.R, mat.G, mat.B, mat.Texture)
	}
	for _, tex := range m.Textures {
		fmt.Fprintf(w, "tex %s %d %d ", sanitizeName(tex.Name), tex.W, tex.H)
		h := hex.EncodeToString(tex.Pix)
		const wrap = 120
		for off := 0; off < len(h); off += wrap {
			end := off + wrap
			if end > len(h) {
				end = len(h)
			}
			if end < len(h) {
				fmt.Fprintf(w, "%s\\\n", h[off:end])
			} else {
				fmt.Fprintf(w, "%s\n", h[off:end])
			}
		}
		if len(h) == 0 {
			fmt.Fprintln(w)
		}
	}
	for _, v := range m.Verts {
		fmt.Fprintf(w, "v %g %g %g\n", v.Pos.X, v.Pos.Y, v.Pos.Z)
	}
	for _, v := range m.Verts {
		fmt.Fprintf(w, "vn %g %g %g\n", v.Normal.X, v.Normal.Y, v.Normal.Z)
	}
	for _, v := range m.Verts {
		fmt.Fprintf(w, "vt %g %g\n", v.U, v.V)
	}
	cur := uint32(0)
	fmt.Fprintf(w, "usemat 0\n")
	for _, t := range m.Tris {
		if t.Mat != cur {
			cur = t.Mat
			fmt.Fprintf(w, "usemat %d\n", cur)
		}
		fmt.Fprintf(w, "f %d %d %d\n", t.A+1, t.B+1, t.C+1)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

// DecodeOBJX parses OBJX text. This is the deliberately expensive load
// path: every vertex costs three float parses.
func DecodeOBJX(data []byte) (*Mesh, error) {
	m := &Mesh{}
	var positions []Vec3
	var normals []Vec3
	var uvs [][2]float32
	curMat := uint32(0)

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	// nextLine glues lines ending in '\' (texture hex wrapping) and skips
	// blanks and comments, including a line that is empty once glued.
	nextLine := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			for strings.HasSuffix(line, "\\") {
				line = strings.TrimSuffix(line, "\\")
				if !sc.Scan() {
					break
				}
				lineNo++
				line += strings.TrimSpace(sc.Text())
			}
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	for {
		line, ok := nextLine()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		op := fields[0]
		args := fields[1:]
		switch op {
		case "o":
			if len(args) >= 1 {
				m.Name = args[0]
			}
		case "newmat":
			if len(args) != 5 {
				return nil, fmt.Errorf("%w: line %d: newmat wants 5 args", ErrBadOBJX, lineNo)
			}
			r, err1 := strconv.Atoi(args[1])
			g, err2 := strconv.Atoi(args[2])
			bl, err3 := strconv.Atoi(args[3])
			tx, err4 := strconv.Atoi(args[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("%w: line %d: newmat numbers", ErrBadOBJX, lineNo)
			}
			m.Materials = append(m.Materials, Material{
				Name: args[0], R: uint8(r), G: uint8(g), B: uint8(bl), Texture: int32(tx),
			})
		case "tex":
			if len(args) < 3 {
				return nil, fmt.Errorf("%w: line %d: tex wants name w h hex", ErrBadOBJX, lineNo)
			}
			w, err1 := strconv.Atoi(args[1])
			h, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil || w <= 0 || h <= 0 {
				return nil, fmt.Errorf("%w: line %d: tex dimensions", ErrBadOBJX, lineNo)
			}
			hexStr := ""
			if len(args) > 3 {
				hexStr = strings.Join(args[3:], "")
			}
			pix, err := hex.DecodeString(hexStr)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: tex hex: %v", ErrBadOBJX, lineNo, err)
			}
			if len(pix) != w*h*3 {
				return nil, fmt.Errorf("%w: line %d: tex %dx%d needs %d bytes, got %d", ErrBadOBJX, lineNo, w, h, w*h*3, len(pix))
			}
			m.Textures = append(m.Textures, Texture{Name: args[0], W: w, H: h, Pix: pix})
		case "v", "vn":
			if len(args) != 3 {
				return nil, fmt.Errorf("%w: line %d: %s wants 3 floats", ErrBadOBJX, lineNo, op)
			}
			var f [3]float32
			for i, a := range args {
				v, err := strconv.ParseFloat(a, 32)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrBadOBJX, lineNo, err)
				}
				f[i] = float32(v)
			}
			if op == "v" {
				positions = append(positions, Vec3{f[0], f[1], f[2]})
			} else {
				normals = append(normals, Vec3{f[0], f[1], f[2]})
			}
		case "vt":
			if len(args) != 2 {
				return nil, fmt.Errorf("%w: line %d: vt wants 2 floats", ErrBadOBJX, lineNo)
			}
			u, err1 := strconv.ParseFloat(args[0], 32)
			v, err2 := strconv.ParseFloat(args[1], 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: line %d: vt floats", ErrBadOBJX, lineNo)
			}
			uvs = append(uvs, [2]float32{float32(u), float32(v)})
		case "usemat":
			if len(args) != 1 {
				return nil, fmt.Errorf("%w: line %d: usemat wants 1 arg", ErrBadOBJX, lineNo)
			}
			idx, err := strconv.Atoi(args[0])
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("%w: line %d: usemat index", ErrBadOBJX, lineNo)
			}
			curMat = uint32(idx)
		case "f":
			if len(args) != 3 {
				return nil, fmt.Errorf("%w: line %d: f wants 3 indices", ErrBadOBJX, lineNo)
			}
			var idx [3]uint32
			for i, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("%w: line %d: face index %q", ErrBadOBJX, lineNo, a)
				}
				idx[i] = uint32(v - 1)
			}
			m.Tris = append(m.Tris, Triangle{A: idx[0], B: idx[1], C: idx[2], Mat: curMat})
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrBadOBJX, lineNo, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: scan: %v", ErrBadOBJX, err)
	}
	if len(normals) != len(positions) || len(uvs) != len(positions) {
		return nil, fmt.Errorf("%w: %d positions, %d normals, %d uvs", ErrBadOBJX, len(positions), len(normals), len(uvs))
	}
	m.Verts = make([]Vertex, len(positions))
	for i := range positions {
		m.Verts[i] = Vertex{Pos: positions[i], Normal: normals[i], U: uvs[i][0], V: uvs[i][1]}
	}
	if len(m.Materials) == 0 {
		m.Materials = []Material{{Name: "default", R: 200, G: 200, B: 200, Texture: -1}}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOBJX, err)
	}
	return m, nil
}
