//go:build amd64 && !purego

#include "textflag.h"

// The reductions of reduce.go: an AVX-512 form and an AVX2 form of each,
// both summing in reduce.go's lane order. Register use:
//	SI x   DX y   DI w   R10 n   BX index
//	R8   end of the 32-entry blocks    CX   the entries left after them (0-31)
//	Z0-Z3 (AVX-512) / Y0-Y7 (AVX2) lanes 0-31 in order, 8 / 4 a register
//	Z4 Z5 / Y8 Y9 a term and its second operand
//	K1 (AVX-512) the tail's lanes of the current register, from AX, whose
//	bits are the tail's 1-31 lanes; AX (AVX2) the tail entries left, Y12
//	AX broadcast, Y13 the current register's tail lanes.
//
// A term macro T(off, R, U) leaves in R the terms of the register's width
// at off(SI)(BX*8): the product rounded by VMULPD, never fused, then added
// to its lane by VADDPD. TK(off, M, R, U) is the same under the tail's lane
// mask M: an opmask on zmm, a mask register of VMASKMOVPD on ymm. A masked
// load reads nothing outside its lanes and does not fault, so no operand is
// read past its end. On zmm the add merges under the opmask; on ymm
// VBLENDVPD keeps the unmasked lanes' old sums. Lanes outside the tail are
// left as they are either way.
//
// The tree: Z0+Z2 and Z1+Z3 (lane j adds lane j+16), their sum (j+8), the
// 256-bit halves (j+4), the 128-bit halves (j+2), then lane 0 + lane 1
// (VPERMILPD brings lane 1 down: a shorter path than VHADDPD); on ymm
// Y0+Y4 … Y3+Y7, (Y0+Y2) and (Y1+Y3), Y0+Y1, then the same two steps.

#define DOT(off, R, U) VMOVUPD off(SI)(BX*8), R; VMULPD off(DX)(BX*8), R, R
#define DOTW(off, R, U) DOT(off, R, U); VMULPD off(DI)(BX*8), R, R
#define SUM(off, R, U) VMOVUPD off(SI)(BX*8), R

#define DOTK(off, K, R, U) VMOVUPD.Z off(SI)(BX*8), K, R; VMOVUPD.Z off(DX)(BX*8), K, U; VMULPD U, R, R
#define DOTWK(off, K, R, U) DOTK(off, K, R, U); VMOVUPD.Z off(DI)(BX*8), K, U; VMULPD U, R, R
#define SUMK(off, K, R, U) VMOVUPD.Z off(SI)(BX*8), K, R

#define DOTM(off, M, R, U) VMASKMOVPD off(SI)(BX*8), M, R; VMASKMOVPD off(DX)(BX*8), M, U; VMULPD U, R, R
#define DOTWM(off, M, R, U) DOTM(off, M, R, U); VMASKMOVPD off(DI)(BX*8), M, U; VMULPD U, R, R
#define SUMM(off, M, R, U) VMASKMOVPD off(SI)(BX*8), M, R

// BLOCKS sets BX to 0, R8 to the end of the 32-entry blocks and CX to the
// entries after it.
#define BLOCKS \
	XORQ BX, BX; \
	MOVQ R10, R8; \
	ANDQ $-32, R8; \
	MOVQ R10, CX; \
	SUBQ R8, CX

// ZREDUCE(T, TK) sums the n entries into X0 on zmm.
#define ZREDUCE(T, TK) \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	BLOCKS; \
	CMPQ R8, $0; \
	JEQ  ztail; \
zblock: \
	T(0, Z4, Z5); VADDPD Z4, Z0, Z0; \
	T(64, Z4, Z5); VADDPD Z4, Z1, Z1; \
	T(128, Z4, Z5); VADDPD Z4, Z2, Z2; \
	T(192, Z4, Z5); VADDPD Z4, Z3, Z3; \
	ADDQ $32, BX; \
	CMPQ BX, R8; \
	JLT  zblock; \
ztail: \
	CMPQ CX, $0; \
	JEQ  ztree; \
	MOVL $1, AX; \
	SHLL CX, AX; \
	DECL AX; \
	KMOVW AX, K1; \
	TK(0, K1, Z4, Z5); VADDPD Z4, Z0, K1, Z0; \
	CMPQ CX, $8; \
	JLE  ztree; \
	SHRL $8, AX; \
	KMOVW AX, K1; \
	TK(64, K1, Z4, Z5); VADDPD Z4, Z1, K1, Z1; \
	CMPQ CX, $16; \
	JLE  ztree; \
	SHRL $8, AX; \
	KMOVW AX, K1; \
	TK(128, K1, Z4, Z5); VADDPD Z4, Z2, K1, Z2; \
	CMPQ CX, $24; \
	JLE  ztree; \
	SHRL $8, AX; \
	KMOVW AX, K1; \
	TK(192, K1, Z4, Z5); VADDPD Z4, Z3, K1, Z3; \
ztree: \
	VADDPD Z2, Z0, Z0; \
	VADDPD Z3, Z1, Z1; \
	VADDPD Z1, Z0, Z0; \
	VEXTRACTF64X4 $1, Z0, Y1; \
	VADDPD Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD X1, X0, X0; \
	VPERMILPD $1, X0, X1; \
	VADDSD X1, X0, X0; \
	VZEROUPPER

// YTAIL(TK, off, A) adds the tail's terms at off to the lanes of A that the
// tail reaches (lane k of A's four while k < AX), then moves AX on by four
// and leaves the tail (to ytree) when none is left.
#define YTAIL(TK, off, A) \
	VMOVQ AX, X12; \
	VPBROADCASTQ X12, Y12; \
	VPCMPGTQ lane4<>(SB), Y12, Y13; \
	TK(off, Y13, Y8, Y9); \
	VADDPD Y8, A, Y8; \
	VBLENDVPD Y13, Y8, A, A; \
	SUBQ $4, AX; \
	JLE  ytree

// YREDUCE(T, TK) sums the n entries into X0 on ymm.
#define YREDUCE(T, TK) \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	BLOCKS; \
	CMPQ R8, $0; \
	JEQ  ytail; \
yblock: \
	T(0, Y8, Y9); VADDPD Y8, Y0, Y0; \
	T(32, Y10, Y11); VADDPD Y10, Y1, Y1; \
	T(64, Y8, Y9); VADDPD Y8, Y2, Y2; \
	T(96, Y10, Y11); VADDPD Y10, Y3, Y3; \
	T(128, Y8, Y9); VADDPD Y8, Y4, Y4; \
	T(160, Y10, Y11); VADDPD Y10, Y5, Y5; \
	T(192, Y8, Y9); VADDPD Y8, Y6, Y6; \
	T(224, Y10, Y11); VADDPD Y10, Y7, Y7; \
	ADDQ $32, BX; \
	CMPQ BX, R8; \
	JLT  yblock; \
ytail: \
	MOVQ CX, AX; \
	CMPQ AX, $0; \
	JEQ  ytree; \
	YTAIL(TK, 0, Y0); \
	YTAIL(TK, 32, Y1); \
	YTAIL(TK, 64, Y2); \
	YTAIL(TK, 96, Y3); \
	YTAIL(TK, 128, Y4); \
	YTAIL(TK, 160, Y5); \
	YTAIL(TK, 192, Y6); \
	YTAIL(TK, 224, Y7); \
ytree: \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y3, Y1, Y1; \
	VADDPD Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD X1, X0, X0; \
	VPERMILPD $1, X0, X1; \
	VADDSD X1, X0, X0; \
	VZEROUPPER

// lane4 is 0, 1, 2, 3: lane k of a ymm takes a tail entry while k < AX.
DATA lane4<>+0(SB)/8, $0
DATA lane4<>+8(SB)/8, $1
DATA lane4<>+16(SB)/8, $2
DATA lane4<>+24(SB)/8, $3
GLOBL lane4<>(SB), RODATA|NOPTR, $32

// The arguments are loaded in each body, not by a macro, so that vet's
// asmdecl pass checks their offsets against the Go declarations.

// func dotAVX512(x, y *float64, n int) float64
TEXT ·dotAVX512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	MOVQ n+16(FP), R10
	ZREDUCE(DOT, DOTK)
	MOVSD X0, ret+24(FP)
	RET

// func dotWAVX512(x, y, w *float64, n int) float64
TEXT ·dotWAVX512(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), R10
	ZREDUCE(DOTW, DOTWK)
	MOVSD X0, ret+32(FP)
	RET

// func sumAVX512(x *float64, n int) float64
TEXT ·sumAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), R10
	ZREDUCE(SUM, SUMK)
	MOVSD X0, ret+16(FP)
	RET

// func dotAVX2(x, y *float64, n int) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	MOVQ n+16(FP), R10
	YREDUCE(DOT, DOTM)
	MOVSD X0, ret+24(FP)
	RET

// func dotWAVX2(x, y, w *float64, n int) float64
TEXT ·dotWAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), R10
	YREDUCE(DOTW, DOTWM)
	MOVSD X0, ret+32(FP)
	RET

// func sumAVX2(x *float64, n int) float64
TEXT ·sumAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), R10
	YREDUCE(SUM, SUMM)
	MOVSD X0, ret+16(FP)
	RET
