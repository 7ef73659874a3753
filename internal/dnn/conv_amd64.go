package dnn

// tapRows4 adds w0..w3 times a rows×n block of input values, starting at
// src and stepping inW values a row, into four output blocks starting at
// d0..d3 and stepping outW values a row. It is SSE assembly
// (conv_amd64.s) and checks no bounds: addRows4 does that first.
//
//go:noescape
func tapRows4(d0, d1, d2, d3 *float32, w0, w1, w2, w3 float32, src *float32, rows, n, outW, inW int)

// addRows4 is addTap4's stride-1 case. With non-negative row steps every
// cell the span touches lies between its first and last one, so checking
// those two in each slice makes a bad span panic here instead of letting
// tapRows4 write past a slice.
func addRows4(d0, d1, d2, d3 []float32, w0, w1, w2, w3 float32, src []float32, g tapSpan) {
	rows, n := g.y1-g.y0, g.x1-g.x0
	if rows <= 0 || n <= 0 {
		return
	}
	if g.outW < 0 || g.inW < 0 {
		panic("dnn: tap span with a negative row step")
	}
	first, last := g.y0*g.outW+g.x0, (g.y1-1)*g.outW+g.x1-1
	_, _, _, _ = d0[last], d1[last], d2[last], d3[last]
	in, inLast := g.y0*g.inW+g.x0+g.off, (g.y1-1)*g.inW+g.x1-1+g.off
	_ = src[inLast]
	tapRows4(&d0[first], &d1[first], &d2[first], &d3[first], w0, w1, w2, w3, &src[in],
		rows, n, g.outW, g.inW)
}
