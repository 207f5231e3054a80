//go:build amd64 && !purego

#include "textflag.h"

// Register use in mulAVX512:
//	SI AX BX R13  &a[r][n2] for the tile's rows r = 0-3 (one past the row;
//	              CX counts k up from -n2 to 0)
//	DI DX R8 R12  &c[r][0] for the same rows of the current layer
//	R9   &b[k][j]     R10  8*j, the chunk's first column (bytes)
//	R11  8*n3, the row stride of b and c
//	R14/R15  the second register's offset from the first in c/in b: 64 (the
//	         chunk's columns j+8..j+15) or the layer stride 8*n1*n3/8*n2*n3
//	         (the same columns of the next layer)
//	Z0-Z11 accumulators (row r: Z(r), Z(r+4) for the second register and
//	Z(r+8) for a layer pair's packed columns 8-11), Z16-Z18 the registers of
//	b[k], Z20-Z23 broadcast a[r][k], Z24 product; K1/K2 the lanes of the
//	last chunk's first/second register, K3 all lanes, K4/K5 the current
//	tile's, K7 K2's lanes moved up by four.
// Locals: left (rows of c from the tile's first on), full (8 * the columns
// of the 16-column chunks before the last chunk), tail (the last chunk's
// columns, 1-16), layers (layers from the current one on), bl/cl (&b, &c of
// the current layer), step (layers in this pass, 1 or 2).
//
// C_k = A*B_k for the nl layers k: B and C are nl matrices each, one after
// the other. Where a row of c has at most 12 columns, the layers go in
// pairs, which share the broadcasts of a, and a last odd layer goes alone:
// the tile's second register holds the same row of the next layer (n3 <= 8),
// or (9-12 columns) each layer has a zmm for columns 0-7 and a third
// register holds both layers' last 1-4 columns, four lanes each, so a row
// pair fills 20 of 24 lanes where one layer at a time fills 10 of 16 (N = 9).
// Otherwise the layers go one at a time. A row of a layer is 16-column
// chunks and then its last 1-16 columns. A tile is up to 4 rows of c by one
// chunk: a zmm of 8 doubles and a second one per row for a chunk of 9-16
// columns, one zmm for 5-8, one ymm for 1-4 (two of each with a layer pair).
// Loads of b and stores to c go through the opmasks: masked-off lanes are
// neither read nor written and do not fault, so nothing past an operand is
// touched and no column is left to a scalar loop. Rows go 4 at a time, and
// the last 1-2 rows 2 at a time; in a tile with fewer rows than that (the
// last 3, or the last one) a missing row's pointers are those of the row
// before it: that row is computed again, with the same operations in the
// same order, and stored again, bit for bit the same value.
//
// One k step of a row: the product is rounded by VMULPD and then added by
// VADDPD (accumulator first), never fused, so every c[i][j] is the
// sequential chain ((0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ... of
// MatMulNaive, whichever tile computes it.
#define ROW(bcast, b, acc, p) VMULPD b, bcast, p; VADDPD p, acc, acc
#define BCAST2(r0, r1) VBROADCASTSD (SI)(CX*8), r0; VBROADCASTSD (AX)(CX*8), r1
#define BCAST4(r0, r1, r2, r3) BCAST2(r0, r1); VBROADCASTSD (BX)(CX*8), r2; VBROADCASTSD (R13)(CX*8), r3
#define ROWS2(b, a0, a1) ROW(Z20, b, a0, Z24); ROW(Z21, b, a1, Z24)
#define ROWS4(b, a0, a1, a2, a3) ROWS2(b, a0, a1); ROW(Z22, b, a2, Z24); ROW(Z23, b, a3, Z24)
#define YROWS2(b, a0, a1) ROW(Y20, b, a0, Y24); ROW(Y21, b, a1, Y24)
#define YROWS4(b, a0, a1, a2, a3) YROWS2(b, a0, a1); ROW(Y22, b, a2, Y24); ROW(Y23, b, a3, Y24)
#define ZERO2(a0, a1) VPXORQ a0, a0, a0; VPXORQ a1, a1, a1
#define ZERO4(a0, a1, a2, a3) ZERO2(a0, a1); ZERO2(a2, a3)

// FIRSTK points R9 at b[0][j] of the current layer and CX at k = 0; NEXTK
// moves both one k on and sets Z when k reaches n2. LOAD2 loads the tile's
// two registers of b[k].
#define FIRSTK MOVQ n2+32(FP), CX; NEGQ CX; MOVQ bl-40(SP), R9; ADDQ R10, R9
#define NEXTK ADDQ R11, R9; INCQ CX
#define LOAD2(b0, b1) VMOVUPD.Z (R9), K4, b0; VMOVUPD.Z (R9)(R15*1), K5, b1

// LOAD12 loads a layer pair's b[k] for rows of 9-12 columns: columns 0-7 of
// each layer, and the last 1-4 of the first layer in lanes 0-3 and of the
// second in lanes 4-7 of one register (K2 and K7 = K2 << 4: a masked load
// reads nothing outside its lanes, so the second starts 4 entries early).
// STORE12(r, a, b, p) stores such a row from its three registers.
#define LOAD12 \
	VMOVUPD (R9), Z16; \
	VMOVUPD (R9)(R15*1), Z17; \
	VMOVUPD.Z 64(R9), K2, Z18; \
	VMOVUPD 32(R9)(R15*1), K7, Z18
#define STORE12(r, a, b, p) \
	VMOVUPD a, (r); \
	VMOVUPD b, (r)(R14*1); \
	VMOVUPD p, K2, 64(r); \
	VMOVUPD p, K7, 32(r)(R14*1)

// STORE1 stores one register per row; STOREX stores a row's two registers,
// the second R14 bytes after the first.
#define STORE1(r, a0) VMOVUPD a0, K4, (r)(R10*1)
#define STORE2(a0, a1) STORE1(DI, a0); STORE1(DX, a1)
#define STORE4(a0, a1, a2, a3) STORE2(a0, a1); STORE1(R8, a2); STORE1(R12, a3)
#define STOREX(r, a0, b0) LEAQ (r)(R10*1), CX; VMOVUPD a0, K4, (CX); VMOVUPD b0, K5, (CX)(R14*1)
#define STOREX2(a0, a1, b0, b1) STOREX(DI, a0, b0); STOREX(DX, a1, b1)
#define STOREX4(a0, a1, a2, a3, b0, b1, b2, b3) STOREX2(a0, a1, b0, b1); STOREX(R8, a2, b2); STOREX(R12, a3, b3)

// NEXTROW(r, a0, c0, ar, cr) points ar, cr at the row after a0, c0 (CX holds
// 8*n2), or at a0, c0 themselves when the tile has r rows or fewer (R10
// holds the rows left).
#define NEXTROW(r, a0, c0, ar, cr) \
	LEAQ (a0)(CX*1), ar; \
	LEAQ (c0)(R11*1), cr; \
	CMPQ R10, $r; \
	CMOVQLE a0, ar; \
	CMOVQLE c0, cr

// func mulAVX512(c, a, b *float64, n1, n2, n3, nl int)
//
// C_k = A*B_k for k < nl, row-major, A n1 x n2, each B_k n2 x n3, each C_k
// n1 x n3, B_k and C_k the k-th of nl matrices stored one after the other;
// all n >= 1. The caller has bounds-checked the three operands.
TEXT ·mulAVX512(SB), NOSPLIT, $56-56
	MOVQ n3+40(FP), R11
	// tail = n3 - 16*floor((n3-1)/16); K1 gets its first min(tail, 8) lanes
	// and K2 the rest.
	LEAQ -1(R11), AX
	ANDQ $-16, AX
	MOVQ R11, CX
	SUBQ AX, CX
	MOVQ CX, tail-24(SP)
	SHLQ $3, AX
	MOVQ AX, full-16(SP)
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	SHRL $8, AX
	KMOVW AX, K2
	KSHIFTLW $4, K2, K7
	KXNORW K3, K3, K3
	SHLQ $3, R11
	MOVQ c+0(FP), AX
	MOVQ AX, cl-48(SP)
	MOVQ b+16(FP), AX
	MOVQ AX, bl-40(SP)
	MOVQ nl+48(FP), AX
	MOVQ AX, layers-32(SP)

layer:
	// A pair of layers where a row is at most 12 columns and two are left;
	// else one.
	MOVQ $1, step-56(SP)
	MOVQ $64, R14
	MOVQ $64, R15
	CMPQ R11, $96
	JGT  layerrows
	CMPQ layers-32(SP), $2
	JLT  layerrows
	MOVQ $2, step-56(SP)
	MOVQ n1+24(FP), R14
	IMULQ R11, R14
	MOVQ n2+32(FP), R15
	IMULQ R11, R15

layerrows:
	MOVQ cl-48(SP), DI
	MOVQ n2+32(FP), CX
	MOVQ a+8(FP), SI
	LEAQ (SI)(CX*8), SI
	MOVQ n1+24(FP), R10
	MOVQ R10, left-8(SP)

rows:
	MOVQ left-8(SP), R10
	MOVQ n2+32(FP), CX
	SHLQ $3, CX
	NEXTROW(1, SI, DI, AX, DX)
	NEXTROW(2, AX, DX, BX, R8)
	NEXTROW(3, BX, R8, R13, R12)
	XORQ R10, R10
	CMPQ step-56(SP), $2
	JNE  chunk
	// A layer pair, one chunk: a register per layer's row, and for 9-12
	// columns a third holding both layers' columns 8-11.
	CMPQ R11, $64
	JGT  p12
	KMOVW K1, K4
	KMOVW K1, K5
	CMPQ tail-24(SP), $4
	JLE  p4
	JMP  c16

chunk:
	CMPQ R10, full-16(SP)
	JGE  last
	KMOVW K3, K4
	KMOVW K3, K5
	JMP  c16

last:
	KMOVW K1, K4
	KMOVW K2, K5
	CMPQ tail-24(SP), $4
	JLE  c4
	CMPQ tail-24(SP), $8
	JLE  c8

c16:
	// Row 2 is row 1: at most two rows are left.
	CMPQ BX, AX
	JEQ  c16r2
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	FIRSTK

c16r4k:
	LOAD2(Z16, Z17)
	BCAST4(Z20, Z21, Z22, Z23)
	ROWS4(Z16, Z0, Z1, Z2, Z3)
	ROWS4(Z17, Z4, Z5, Z6, Z7)
	NEXTK
	JNZ  c16r4k
	STOREX4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	JMP  c16next

c16r2:
	ZERO4(Z0, Z1, Z4, Z5)
	FIRSTK

c16r2k:
	LOAD2(Z16, Z17)
	BCAST2(Z20, Z21)
	ROWS2(Z16, Z0, Z1)
	ROWS2(Z17, Z4, Z5)
	NEXTK
	JNZ  c16r2k
	STOREX2(Z0, Z1, Z4, Z5)

c16next:
	ADDQ $128, R10
	CMPQ R10, R11
	JLT  chunk
	JMP  next

c8:
	CMPQ BX, AX
	JEQ  c8r2
	ZERO4(Z0, Z1, Z2, Z3)
	FIRSTK

c8r4k:
	VMOVUPD.Z (R9), K4, Z16
	BCAST4(Z20, Z21, Z22, Z23)
	ROWS4(Z16, Z0, Z1, Z2, Z3)
	NEXTK
	JNZ  c8r4k
	STORE4(Z0, Z1, Z2, Z3)
	JMP  next

c8r2:
	ZERO2(Z0, Z1)
	FIRSTK

c8r2k:
	VMOVUPD.Z (R9), K4, Z16
	BCAST2(Z20, Z21)
	ROWS2(Z16, Z0, Z1)
	NEXTK
	JNZ  c8r2k
	STORE2(Z0, Z1)
	JMP  next

c4:
	CMPQ BX, AX
	JEQ  c4r2
	ZERO4(Y0, Y1, Y2, Y3)
	FIRSTK

c4r4k:
	VMOVUPD.Z (R9), K4, Y16
	BCAST4(Y20, Y21, Y22, Y23)
	YROWS4(Y16, Y0, Y1, Y2, Y3)
	NEXTK
	JNZ  c4r4k
	STORE4(Y0, Y1, Y2, Y3)
	JMP  next

c4r2:
	ZERO2(Y0, Y1)
	FIRSTK

c4r2k:
	VMOVUPD.Z (R9), K4, Y16
	BCAST2(Y20, Y21)
	YROWS2(Y16, Y0, Y1)
	NEXTK
	JNZ  c4r2k
	STORE2(Y0, Y1)
	JMP  next

p4:
	CMPQ BX, AX
	JEQ  p4r2
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	FIRSTK

p4r4k:
	LOAD2(Y16, Y17)
	BCAST4(Y20, Y21, Y22, Y23)
	YROWS4(Y16, Y0, Y1, Y2, Y3)
	YROWS4(Y17, Y4, Y5, Y6, Y7)
	NEXTK
	JNZ  p4r4k
	STOREX4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	JMP  next

p4r2:
	ZERO4(Y0, Y1, Y4, Y5)
	FIRSTK

p4r2k:
	LOAD2(Y16, Y17)
	BCAST2(Y20, Y21)
	YROWS2(Y16, Y0, Y1)
	YROWS2(Y17, Y4, Y5)
	NEXTK
	JNZ  p4r2k
	STOREX2(Y0, Y1, Y4, Y5)
	JMP  next

p12:
	CMPQ BX, AX
	JEQ  p12r2
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	ZERO4(Z8, Z9, Z10, Z11)
	FIRSTK

p12r4k:
	LOAD12
	BCAST4(Z20, Z21, Z22, Z23)
	ROWS4(Z16, Z0, Z1, Z2, Z3)
	ROWS4(Z17, Z4, Z5, Z6, Z7)
	ROWS4(Z18, Z8, Z9, Z10, Z11)
	NEXTK
	JNZ  p12r4k
	STORE12(DI, Z0, Z4, Z8)
	STORE12(DX, Z1, Z5, Z9)
	STORE12(R8, Z2, Z6, Z10)
	STORE12(R12, Z3, Z7, Z11)
	JMP  next

p12r2:
	ZERO4(Z0, Z1, Z4, Z5)
	ZERO2(Z8, Z9)
	FIRSTK

p12r2k:
	LOAD12
	BCAST2(Z20, Z21)
	ROWS2(Z16, Z0, Z1)
	ROWS2(Z17, Z4, Z5)
	ROWS2(Z18, Z8, Z9)
	NEXTK
	JNZ  p12r2k
	STORE12(DI, Z0, Z4, Z8)
	STORE12(DX, Z1, Z5, Z9)

next:
	MOVQ n2+32(FP), CX
	SHLQ $5, CX
	ADDQ CX, SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, left-8(SP)
	JGT  rows
	// On to the next layer (or pair): step layers of b and c further.
	MOVQ step-56(SP), AX
	MOVQ n2+32(FP), CX
	IMULQ R11, CX
	IMULQ AX, CX
	ADDQ CX, bl-40(SP)
	MOVQ n1+24(FP), CX
	IMULQ R11, CX
	IMULQ AX, CX
	ADDQ CX, cl-48(SP)
	SUBQ AX, layers-32(SP)
	JGT  layer
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// CPUID leaf 1: the OS uses XSAVE; XGETBV: the OS saves the XMM, YMM, opmask
// and both halves of the ZMM state; CPUID leaf 7: AVX-512F and AVX-512VL (the
// opmasked ymm tile).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80010000, BX
	CMPL BX, $0x80010000
	SETEQ ret+0(FP)

no:
	RET
