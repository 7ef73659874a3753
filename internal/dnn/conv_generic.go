//go:build !amd64

package dnn

// addRows4 is addTap4's stride-1 case in portable Go: each input row is
// read once and added, times each plane's weight, into four output rows.
func addRows4(d0, d1, d2, d3 []float32, w0, w1, w2, w3 float32, src []float32, g tapSpan) {
	n := g.x1 - g.x0
	for oy := g.y0; oy < g.y1; oy++ {
		at := oy*g.outW + g.x0
		r0, r1, r2, r3 := d0[at:][:n], d1[at:][:n], d2[at:][:n], d3[at:][:n]
		x := src[oy*g.inW+g.x0+g.off:][:n]
		for i, v := range x {
			r0[i] += w0 * v
			r1[i] += w1 * v
			r2[i] += w2 * v
			r3[i] += w3 * v
		}
	}
}
