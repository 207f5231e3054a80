//go:build amd64 && !purego

#include "textflag.h"

// The elementwise kernels of elementwise.go. Register use:
//	DI  dst (w, x)   SI  a (x)   DX  b (y)
//	CX  n            BX  index   R8  end of the current stride
//	Y0-Y3 lanes, Y8 (X8) alpha broadcast.
//
// SWEEP(V, S) runs V(off, Y) on 16 elements a pass while they last, then on 4,
// then S on one at a time: every entry gets the same one-rounding-per-operation
// arithmetic, whatever its position. Operands are addressed base + 8·BX, so
// the passes differ only in how far BX moves. Each V loads all its operands
// before it stores, so dst may alias an operand entry for entry.
#define SWEEP(V, S) \
	XORQ BX, BX; \
	MOVQ CX, R8; \
	ANDQ $-16, R8; \
	JZ   by4; \
by16: \
	V(0, Y0); V(32, Y1); V(64, Y2); V(96, Y3); \
	ADDQ $16, BX; \
	CMPQ BX, R8; \
	JLT  by16; \
by4: \
	MOVQ CX, R8; \
	ANDQ $-4, R8; \
	CMPQ BX, R8; \
	JGE  by1; \
by4l: \
	V(0, Y0); \
	ADDQ $4, BX; \
	CMPQ BX, R8; \
	JLT  by4l; \
by1: \
	CMPQ BX, CX; \
	JGE  done; \
by1l: \
	S; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT  by1l; \
done: \
	VZEROUPPER; \
	RET

// Three-operand kernels: dst, a, b in DI, SI, DX.
#define ARGS3 \
	MOVQ dst+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX

// dst = a*b
#define PROD(off, Y) VMOVUPD off(SI)(BX*8), Y; VMULPD off(DX)(BX*8), Y, Y; VMOVUPD Y, off(DI)(BX*8)
#define PROD1 VMOVSD (SI)(BX*8), X0; VMULSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// dst = dst + a*b: the product is rounded by VMULPD, then added (no FMA).
#define ADDPROD(off, Y) VMOVUPD off(SI)(BX*8), Y; VMULPD off(DX)(BX*8), Y, Y; VADDPD off(DI)(BX*8), Y, Y; VMOVUPD Y, off(DI)(BX*8)
#define ADDPROD1 VMOVSD (SI)(BX*8), X0; VMULSD (DX)(BX*8), X0, X0; VADDSD (DI)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// dst = a/b
#define QUOT(off, Y) VMOVUPD off(SI)(BX*8), Y; VDIVPD off(DX)(BX*8), Y, Y; VMOVUPD Y, off(DI)(BX*8)
#define QUOT1 VMOVSD (SI)(BX*8), X0; VDIVSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// w = y + alpha*x, with w, x, y in DI, SI, DX.
#define AXPY(off, Y) VMULPD off(SI)(BX*8), Y8, Y; VADDPD off(DX)(BX*8), Y, Y; VMOVUPD Y, off(DI)(BX*8)
#define AXPY1 VMULSD (SI)(BX*8), X8, X0; VADDSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// x = alpha*x and x = x/alpha, x in DI.
#define SCALE(off, Y) VMULPD off(DI)(BX*8), Y8, Y; VMOVUPD Y, off(DI)(BX*8)
#define SCALE1 VMULSD (DI)(BX*8), X8, X0; VMOVSD X0, (DI)(BX*8)
#define UNSCALE(off, Y) VMOVUPD off(DI)(BX*8), Y; VDIVPD Y8, Y, Y; VMOVUPD Y, off(DI)(BX*8)
#define UNSCALE1 VMOVSD (DI)(BX*8), X0; VDIVSD X8, X0, X0; VMOVSD X0, (DI)(BX*8)

// func prodAVX2(dst, a, b *float64, n int)
TEXT ·prodAVX2(SB), NOSPLIT, $0-32
	ARGS3
	SWEEP(PROD, PROD1)

// func addProdAVX2(dst, a, b *float64, n int)
TEXT ·addProdAVX2(SB), NOSPLIT, $0-32
	ARGS3
	SWEEP(ADDPROD, ADDPROD1)

// func quotAVX2(dst, a, b *float64, n int)
TEXT ·quotAVX2(SB), NOSPLIT, $0-32
	ARGS3
	SWEEP(QUOT, QUOT1)

// func axpyAVX2(w, x, y *float64, alpha float64, n int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	VBROADCASTSD alpha+24(FP), Y8
	MOVQ n+32(FP), CX
	SWEEP(AXPY, AXPY1)

// func scaleAVX2(x *float64, alpha float64, n int)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	VBROADCASTSD alpha+8(FP), Y8
	MOVQ n+16(FP), CX
	SWEEP(SCALE, SCALE1)

// func unscaleAVX2(x *float64, alpha float64, n int)
TEXT ·unscaleAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	VBROADCASTSD alpha+8(FP), Y8
	MOVQ n+16(FP), CX
	SWEEP(UNSCALE, UNSCALE1)
