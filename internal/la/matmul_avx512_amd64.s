//go:build amd64 && !purego

#include "textflag.h"

// Register use in mulAVX512:
//	SI AX BX R13  &a[r][n2] for the tile's rows r = 0-3 (one past the row;
//	              CX counts k up from -n2 to 0)
//	DI DX R8 R12  &c[r][0] for the same rows
//	R9   &b[k][j]     R10  8*j, the chunk's first column (bytes)
//	R11  8*n3, the row stride of b and c
//	Z0-Z7 accumulators (row r: Z(r), and Z(r+4) for columns j+8..j+15),
//	Z16/Z17 b[k][j:j+16], Z20-Z23 broadcast a[r][k], Z24 product;
//	K1/K2 the lanes of the last chunk's first/second register, K3 all lanes,
//	K4/K5 the current chunk's.
// Locals: left (rows of c from the tile's first on), full (8 * the columns
// of the 16-column chunks before the last chunk), tail (the last chunk's
// columns, 1-16).
//
// A row of c is 16-column chunks and then its last 1-16 columns. A tile is up
// to 4 rows of c by one chunk: a zmm of 8 doubles and a second one per row
// for a chunk of 9-16 columns, one zmm for 5-8, one ymm for 1-4. Loads of b
// and stores to c go through the opmasks: masked-off lanes are neither read
// nor written and do not fault, so nothing past an operand is touched and no
// column is left to a scalar loop. Rows go 4 at a time, and the last 1-2 rows
// 2 at a time; in a tile with fewer rows than that (the last 3, or the last
// one) a missing row's pointers are those of the row before it: that row is
// computed again, with the same operations in the same order, and stored
// again, bit for bit the same value.
//
// One k step of a row: the product is rounded by VMULPD and then added by
// VADDPD (accumulator first), never fused, so every c[i][j] is the
// sequential chain ((0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ... of
// MatMulNaive.
#define ROW(bcast, b, acc, p) VMULPD b, bcast, p; VADDPD p, acc, acc
#define BCAST2(r0, r1) VBROADCASTSD (SI)(CX*8), r0; VBROADCASTSD (AX)(CX*8), r1
#define BCAST4(r0, r1, r2, r3) BCAST2(r0, r1); VBROADCASTSD (BX)(CX*8), r2; VBROADCASTSD (R13)(CX*8), r3
#define ROWS2(b, a0, a1) ROW(Z20, b, a0, Z24); ROW(Z21, b, a1, Z24)
#define ROWS4(b, a0, a1, a2, a3) ROWS2(b, a0, a1); ROW(Z22, b, a2, Z24); ROW(Z23, b, a3, Z24)
#define ZERO2(a0, a1) VPXORQ a0, a0, a0; VPXORQ a1, a1, a1
#define ZERO4(a0, a1, a2, a3) ZERO2(a0, a1); ZERO2(a2, a3)

// FIRSTK points R9 at b[0][j] and CX at k = 0; NEXTK moves both one k on and
// sets Z when k reaches n2.
#define FIRSTK MOVQ n2+32(FP), CX; NEGQ CX; MOVQ b+16(FP), R9; ADDQ R10, R9
#define NEXTK ADDQ R11, R9; INCQ CX

#define STORE2(off, m, a0, a1) VMOVUPD a0, m, off(DI)(R10*1); VMOVUPD a1, m, off(DX)(R10*1)
#define STORE4(off, m, a0, a1, a2, a3) STORE2(off, m, a0, a1); VMOVUPD a2, m, off(R8)(R10*1); VMOVUPD a3, m, off(R12)(R10*1)

// NEXTROW(r, a0, c0, ar, cr) points ar, cr at the row after a0, c0 (CX holds
// 8*n2), or at a0, c0 themselves when the tile has r rows or fewer (R10
// holds the rows left).
#define NEXTROW(r, a0, c0, ar, cr) \
	LEAQ (a0)(CX*1), ar; \
	LEAQ (c0)(R11*1), cr; \
	CMPQ R10, $r; \
	CMOVQLE a0, ar; \
	CMOVQLE c0, cr

// func mulAVX512(c, a, b *float64, n1, n2, n3 int)
//
// C = A*B, row-major, A n1 x n2, B n2 x n3, all n >= 1; the caller has
// bounds-checked the three operands.
TEXT ·mulAVX512(SB), NOSPLIT, $24-48
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
	KXNORW K3, K3, K3
	SHLQ $3, R11
	MOVQ c+0(FP), DI
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
	VMOVUPD.Z (R9), K4, Z16
	VMOVUPD.Z 64(R9), K5, Z17
	BCAST4(Z20, Z21, Z22, Z23)
	ROWS4(Z16, Z0, Z1, Z2, Z3)
	ROWS4(Z17, Z4, Z5, Z6, Z7)
	NEXTK
	JNZ  c16r4k
	STORE4(0, K4, Z0, Z1, Z2, Z3)
	STORE4(64, K5, Z4, Z5, Z6, Z7)
	JMP  c16next

c16r2:
	ZERO4(Z0, Z1, Z4, Z5)
	FIRSTK

c16r2k:
	VMOVUPD.Z (R9), K4, Z16
	VMOVUPD.Z 64(R9), K5, Z17
	BCAST2(Z20, Z21)
	ROWS2(Z16, Z0, Z1)
	ROWS2(Z17, Z4, Z5)
	NEXTK
	JNZ  c16r2k
	STORE2(0, K4, Z0, Z1)
	STORE2(64, K5, Z4, Z5)

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
	STORE4(0, K4, Z0, Z1, Z2, Z3)
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
	STORE2(0, K4, Z0, Z1)
	JMP  next

c4:
	CMPQ BX, AX
	JEQ  c4r2
	ZERO4(Y0, Y1, Y2, Y3)
	FIRSTK

c4r4k:
	VMOVUPD.Z (R9), K4, Y16
	BCAST4(Y20, Y21, Y22, Y23)
	ROW(Y20, Y16, Y0, Y24)
	ROW(Y21, Y16, Y1, Y24)
	ROW(Y22, Y16, Y2, Y24)
	ROW(Y23, Y16, Y3, Y24)
	NEXTK
	JNZ  c4r4k
	STORE4(0, K4, Y0, Y1, Y2, Y3)
	JMP  next

c4r2:
	ZERO2(Y0, Y1)
	FIRSTK

c4r2k:
	VMOVUPD.Z (R9), K4, Y16
	BCAST2(Y20, Y21)
	ROW(Y20, Y16, Y0, Y24)
	ROW(Y21, Y16, Y1, Y24)
	NEXTK
	JNZ  c4r2k
	STORE2(0, K4, Y0, Y1)

next:
	MOVQ n2+32(FP), CX
	SHLQ $5, CX
	ADDQ CX, SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, left-8(SP)
	JGT  rows
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
