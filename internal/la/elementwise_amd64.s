//go:build amd64 && !purego

#include "textflag.h"

// The elementwise kernels of elementwise.go: an AVX2 form (ymm) of each and
// an AVX-512 form (zmm) of the ones that multiply. The divides (Quot,
// Unscale) have the AVX2 form only: the divider's lane rate is the same on
// ymm and zmm, and a zmm form measured up to 1 % slower. Register use:
//	DI  dst (w, x)   SI  a (x)   DX  b (y)
//	CX  n            BX  index   R8  end of the current stride (in ZSWEEP,
//	                                 after its 32-entry passes, the entries left)
//	Y0-Y3 / Z0-Z3 lanes, Y8 / Z8 (X8) alpha broadcast.
//
// Each operation is one macro V(off, R, A) on the vector register R (A: the
// alpha broadcast of R's width) and one S on a single entry: every entry gets
// the same one-rounding-per-operation arithmetic, VMULPD, VADDPD or VDIVPD
// (never fused), whatever its position and the register's width. Operands are
// addressed base + 8·BX, so the passes differ only in how far BX moves. Each
// V and S loads all its operands before it stores, so dst may alias an
// operand entry for entry.
//
// SWEEP(V, S), the AVX2 form, runs V on 16 elements a pass while they last
// (four ymm), then on 4, then S on one at a time.
#define SWEEP(V, S) \
	XORQ BX, BX; \
	MOVQ CX, R8; \
	ANDQ $-16, R8; \
	JZ   by4; \
by16: \
	V(0, Y0, Y8); V(32, Y1, Y8); V(64, Y2, Y8); V(96, Y3, Y8); \
	ADDQ $16, BX; \
	CMPQ BX, R8; \
	JLT  by16; \
by4: \
	MOVQ CX, R8; \
	ANDQ $-4, R8; \
	CMPQ BX, R8; \
	JGE  by1; \
by4l: \
	V(0, Y0, Y8); \
	ADDQ $4, BX; \
	CMPQ BX, R8; \
	JLT  by4l; \
ONES(S)

// ZSWEEP(V, S), the AVX-512 form, for n >= 32, runs V on 32 elements a pass
// while they last (four zmm), then on the last 16 (two zmm), 8 (one zmm) and
// 4 (one ymm) that the remainder holds, then S on one at a time: the last
// 1-7 entries take the AVX2 form's tail, not an opmasked zmm, which measured
// slower than the ymm pass at length 36, one of the step's short vectors.
#define ZSWEEP(V, S) \
	XORQ BX, BX; \
	MOVQ CX, R8; \
	ANDQ $-32, R8; \
by32: \
	V(0, Z0, Z8); V(64, Z1, Z8); V(128, Z2, Z8); V(192, Z3, Z8); \
	ADDQ $32, BX; \
	CMPQ BX, R8; \
	JLT  by32; \
	MOVQ CX, R8; \
	SUBQ BX, R8; \
	TESTQ $16, R8; \
	JZ   by8; \
	V(0, Z0, Z8); V(64, Z1, Z8); \
	ADDQ $16, BX; \
by8: \
	TESTQ $8, R8; \
	JZ   by4; \
	V(0, Z0, Z8); \
	ADDQ $8, BX; \
by4: \
	TESTQ $4, R8; \
	JZ   by1; \
	V(0, Y0, Y8); \
	ADDQ $4, BX; \
ONES(S)

// ONES(S) runs S on the entries from BX to n, then returns.
#define ONES(S) \
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

// The arguments are loaded in each body, not by a macro, so that vet's
// asmdecl pass checks their offsets against the Go declarations: dst, a, b
// (w, x, y) in DI, SI, DX, n in CX, and alpha broadcast into Y8 for the AVX2
// form and Z8 for the AVX-512 one (their low lanes are Y8 and X8).

// dst = a*b
#define PROD(off, R, A) VMOVUPD off(SI)(BX*8), R; VMULPD off(DX)(BX*8), R, R; VMOVUPD R, off(DI)(BX*8)
#define PROD1 VMOVSD (SI)(BX*8), X0; VMULSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// dst = dst + a*b: the product is rounded by VMULPD, then added (no FMA).
#define ADDPROD(off, R, A) VMOVUPD off(SI)(BX*8), R; VMULPD off(DX)(BX*8), R, R; VADDPD off(DI)(BX*8), R, R; VMOVUPD R, off(DI)(BX*8)
#define ADDPROD1 VMOVSD (SI)(BX*8), X0; VMULSD (DX)(BX*8), X0, X0; VADDSD (DI)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// dst = a/b
#define QUOT(off, R, A) VMOVUPD off(SI)(BX*8), R; VDIVPD off(DX)(BX*8), R, R; VMOVUPD R, off(DI)(BX*8)
#define QUOT1 VMOVSD (SI)(BX*8), X0; VDIVSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// w = y + alpha*x, with w, x, y in DI, SI, DX.
#define AXPY(off, R, A) VMULPD off(SI)(BX*8), A, R; VADDPD off(DX)(BX*8), R, R; VMOVUPD R, off(DI)(BX*8)
#define AXPY1 VMULSD (SI)(BX*8), X8, X0; VADDSD (DX)(BX*8), X0, X0; VMOVSD X0, (DI)(BX*8)

// x = alpha*x and x = x/alpha, x in DI.
#define SCALE(off, R, A) VMULPD off(DI)(BX*8), A, R; VMOVUPD R, off(DI)(BX*8)
#define SCALE1 VMULSD (DI)(BX*8), X8, X0; VMOVSD X0, (DI)(BX*8)
#define UNSCALE(off, R, A) VMOVUPD off(DI)(BX*8), R; VDIVPD A, R, R; VMOVUPD R, off(DI)(BX*8)
#define UNSCALE1 VMOVSD (DI)(BX*8), X0; VDIVSD X8, X0, X0; VMOVSD X0, (DI)(BX*8)

// func prodAVX2(dst, a, b *float64, n int)
TEXT ·prodAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SWEEP(PROD, PROD1)

// func addProdAVX2(dst, a, b *float64, n int)
TEXT ·addProdAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SWEEP(ADDPROD, ADDPROD1)

// func quotAVX2(dst, a, b *float64, n int)
TEXT ·quotAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
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

// func prodAVX512(dst, a, b *float64, n int)
TEXT ·prodAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	ZSWEEP(PROD, PROD1)

// func addProdAVX512(dst, a, b *float64, n int)
TEXT ·addProdAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	ZSWEEP(ADDPROD, ADDPROD1)

// func axpyAVX512(w, x, y *float64, alpha float64, n int)
TEXT ·axpyAVX512(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	VBROADCASTSD alpha+24(FP), Z8
	MOVQ n+32(FP), CX
	ZSWEEP(AXPY, AXPY1)

// func scaleAVX512(x *float64, alpha float64, n int)
TEXT ·scaleAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	VBROADCASTSD alpha+8(FP), Z8
	MOVQ n+16(FP), CX
	ZSWEEP(SCALE, SCALE1)
