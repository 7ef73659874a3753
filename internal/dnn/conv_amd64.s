#include "textflag.h"

// ADD4 adds w times the four inputs in v to the four outputs at
// d+off+4*AX, one MULPS and one ADDPS: each lane rounds its product and
// then its sum, as the scalar loop does for one cell.
#define ADD4(w, v, d, off) \
	MOVAPS v, X5 \
	MULPS  w, X5 \
	MOVUPS off(d)(AX*4), X6 \
	ADDPS  X5, X6 \
	MOVUPS X6, off(d)(AX*4)

// ADD2 is ADD4 for two outputs: MOVQ moves the low two lanes and clears
// the upper two, which then compute 0*w + 0 and are never stored.
#define ADD2(w, v, d) \
	MOVAPS v, X5 \
	MULPS  w, X5 \
	MOVQ   (d)(AX*4), X6 \
	ADDPS  X5, X6 \
	MOVQ   X6, (d)(AX*4)

// ADD1 is ADD4 for one output.
#define ADD1(w, v, d) \
	MOVSS v, X5 \
	MULSS w, X5 \
	ADDSS (d)(AX*4), X5 \
	MOVSS X5, (d)(AX*4)

// func tapRows4(d0, d1, d2, d3 *float32, w0, w1, w2, w3 float32, src *float32, rows, n, outW, inW int)
//
// For each of rows rows, and each column i < n of it, with v = src[i]:
// dK[i] = dK[i] + wK*v for K = 0..3. Eight columns a step, then four,
// two and one; then every pointer moves on one row.
TEXT ·tapRows4(SB), NOSPLIT, $0-88
	MOVQ   d0+0(FP), DI
	MOVQ   d1+8(FP), SI
	MOVQ   d2+16(FP), R8
	MOVQ   d3+24(FP), R9
	MOVSS  w0+32(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  w1+36(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  w2+40(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  w3+44(FP), X3
	SHUFPS $0x00, X3, X3
	MOVQ   src+48(FP), DX
	MOVQ   rows+56(FP), CX
	MOVQ   n+64(FP), BX
	MOVQ   outW+72(FP), R10
	SHLQ   $2, R10
	MOVQ   inW+80(FP), R11
	SHLQ   $2, R11
	MOVQ   BX, R12
	ANDQ   $-8, R12
	TESTQ  CX, CX
	JLE    done

row:
	XORQ AX, AX
	CMPQ AX, R12
	JGE  four

eight:
	MOVUPS (DX)(AX*4), X4
	MOVUPS 16(DX)(AX*4), X7
	ADD4(X0, X4, DI, 0)
	ADD4(X0, X7, DI, 16)
	ADD4(X1, X4, SI, 0)
	ADD4(X1, X7, SI, 16)
	ADD4(X2, X4, R8, 0)
	ADD4(X2, X7, R8, 16)
	ADD4(X3, X4, R9, 0)
	ADD4(X3, X7, R9, 16)
	ADDQ $8, AX
	CMPQ AX, R12
	JLT  eight

four:
	MOVQ BX, R13
	SUBQ AX, R13
	CMPQ R13, $4
	JLT  two
	MOVUPS (DX)(AX*4), X4
	ADD4(X0, X4, DI, 0)
	ADD4(X1, X4, SI, 0)
	ADD4(X2, X4, R8, 0)
	ADD4(X3, X4, R9, 0)
	ADDQ $4, AX
	SUBQ $4, R13

two:
	CMPQ R13, $2
	JLT  one
	MOVQ (DX)(AX*4), X4
	ADD2(X0, X4, DI)
	ADD2(X1, X4, SI)
	ADD2(X2, X4, R8)
	ADD2(X3, X4, R9)
	ADDQ $2, AX
	SUBQ $2, R13

one:
	TESTQ R13, R13
	JZ    next
	MOVSS (DX)(AX*4), X4
	ADD1(X0, X4, DI)
	ADD1(X1, X4, SI)
	ADD1(X2, X4, R8)
	ADD1(X3, X4, R9)

next:
	ADDQ R10, DI
	ADDQ R10, SI
	ADDQ R10, R8
	ADDQ R10, R9
	ADDQ R11, DX
	DECQ CX
	JNZ  row

done:
	RET
