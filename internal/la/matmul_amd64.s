//go:build amd64 && !purego

#include "textflag.h"

// Column masks for the 1-3 trailing columns of a row: entry r (32 bytes) has
// its first r lanes set. Entry 0 is never loaded.
DATA colmask<>+0(SB)/8, $0
DATA colmask<>+8(SB)/8, $0
DATA colmask<>+16(SB)/8, $0
DATA colmask<>+24(SB)/8, $0
DATA colmask<>+32(SB)/8, $-1
DATA colmask<>+40(SB)/8, $0
DATA colmask<>+48(SB)/8, $0
DATA colmask<>+56(SB)/8, $0
DATA colmask<>+64(SB)/8, $-1
DATA colmask<>+72(SB)/8, $-1
DATA colmask<>+80(SB)/8, $0
DATA colmask<>+88(SB)/8, $0
DATA colmask<>+96(SB)/8, $-1
DATA colmask<>+104(SB)/8, $-1
DATA colmask<>+112(SB)/8, $-1
DATA colmask<>+120(SB)/8, $0
GLOBL colmask<>(SB), RODATA|NOPTR, $128

// Register use in mulAVX2:
//	DI  &c[i][j]                  R8   rows left
//	SI  &a[i][0]    AX &a[i+1][0] R9   n2
//	DX  &b[0][j]    BX &b[k][j]   R10  columns left in this row
//	CX  k                         R11  8*n3 (row stride of b and c)
//	R13 scratch                   R12  8*n2 (row stride of a)
//	Y0-Y3 accumulators, Y4/Y5 broadcast a[i][k]/a[i+1][k], Y6/Y7 b[k][j:j+8],
//	Y8 product, Y12 column mask.
//
// One k step of each tile. The product is rounded by VMULPD and then added by
// VADDPD (accumulator first), never fused: every c[i][j] is the sequential
// chain ((0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ... of MatMulNaive.
#define ROW0(b, acc) VMULPD b, Y4, Y8; VADDPD Y8, acc, acc
#define ROW1(b, acc) VMULPD b, Y5, Y8; VADDPD Y8, acc, acc
#define BCAST0 VBROADCASTSD (SI)(CX*8), Y4
#define BCAST1 VBROADCASTSD (AX)(CX*8), Y5
#define LOAD8 VMOVUPD (BX), Y6; VMOVUPD 32(BX), Y7
#define LOAD4 VMOVUPD (BX), Y6
#define LOADM VMASKMOVPD (BX), Y12, Y6
#define NEXTK ADDQ R11, BX; INCQ CX; CMPQ CX, R9
#define ZERO2 VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1
#define ZERO4 ZERO2; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3
#define FIRSTK MOVQ DX, BX; XORQ CX, CX
#define MASK LEAQ colmask<>(SB), R13; MOVQ R10, CX; SHLQ $5, CX; VMOVDQU (R13)(CX*1), Y12
#define ADVANCE(bytes, cols) ADDQ $bytes, DI; ADDQ $bytes, DX; SUBQ $cols, R10

// func mulAVX2(c, a, b *float64, n1, n2, n3 int)
//
// C = A*B, row-major, A n1 x n2, B n2 x n3, all n >= 1; the caller has
// bounds-checked the three operands. Output tiles of 2 rows x 8 columns, then
// 2 x 4, then a masked tail of 1-3 columns; the same three for a last odd row.
TEXT ·mulAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n1+24(FP), R8
	MOVQ n2+32(FP), R9
	MOVQ n3+40(FP), R11
	MOVQ R9, R12
	SHLQ $3, R11
	SHLQ $3, R12

rows2:
	CMPQ R8, $2
	JLT  rows1
	LEAQ (SI)(R12*1), AX
	MOVQ R11, R10
	SHRQ $3, R10

r2c8:
	CMPQ R10, $8
	JLT  r2c4
	ZERO4
	FIRSTK

r2c8k:
	BCAST0
	BCAST1
	LOAD8
	ROW0(Y6, Y0)
	ROW0(Y7, Y1)
	ROW1(Y6, Y2)
	ROW1(Y7, Y3)
	NEXTK
	JLT  r2c8k
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R11*1)
	VMOVUPD Y3, 32(DI)(R11*1)
	ADVANCE(64, 8)
	JMP  r2c8

r2c4:
	CMPQ R10, $4
	JLT  r2tail
	ZERO2
	FIRSTK

r2c4k:
	BCAST0
	BCAST1
	LOAD4
	ROW0(Y6, Y0)
	ROW1(Y6, Y1)
	NEXTK
	JLT  r2c4k
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R11*1)
	ADVANCE(32, 4)

r2tail:
	TESTQ R10, R10
	JZ    r2next
	MASK
	ZERO2
	FIRSTK

r2tailk:
	BCAST0
	BCAST1
	LOADM
	ROW0(Y6, Y0)
	ROW1(Y6, Y1)
	NEXTK
	JLT  r2tailk
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y12, (DI)(R11*1)
	LEAQ (DI)(R10*8), DI
	LEAQ (DX)(R10*8), DX

r2next:
	// DI has walked one row of c and DX one row's width of b.
	ADDQ R11, DI
	SUBQ R11, DX
	LEAQ (AX)(R12*1), SI
	SUBQ $2, R8
	JMP  rows2

rows1:
	TESTQ R8, R8
	JZ    done
	MOVQ  R11, R10
	SHRQ  $3, R10

r1c8:
	CMPQ R10, $8
	JLT  r1c4
	ZERO2
	FIRSTK

r1c8k:
	BCAST0
	LOAD8
	ROW0(Y6, Y0)
	ROW0(Y7, Y1)
	NEXTK
	JLT  r1c8k
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADVANCE(64, 8)
	JMP  r1c8

r1c4:
	CMPQ R10, $4
	JLT  r1tail
	ZERO2
	FIRSTK

r1c4k:
	BCAST0
	LOAD4
	ROW0(Y6, Y0)
	NEXTK
	JLT  r1c4k
	VMOVUPD Y0, (DI)
	ADVANCE(32, 4)

r1tail:
	TESTQ R10, R10
	JZ    done
	MASK
	ZERO2
	FIRSTK

r1tailk:
	BCAST0
	LOADM
	ROW0(Y6, Y0)
	NEXTK
	JLT  r1tailk
	VMASKMOVPD Y0, Y12, (DI)

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID leaf 1: the OS uses XSAVE and the CPU has AVX; XGETBV: the OS saves
// XMM and YMM state; CPUID leaf 7: AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	SETCS ret+0(FP)

no:
	RET
