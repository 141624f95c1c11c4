//go:build amd64 && !noasm

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The dense micro-kernels. One call computes, for the m ≤ 3 rows of a
// and every one of the n rows of b,
//
//	dst[r][j] = max(Σ_k a[r][k]·b[j][k] + bias[j], floor)
//
// with a and b contiguous along k (row stride k), dst row stride n, bias
// nil for none and floor 0 (relu) or -Inf. The j loop runs here, in
// groups of four b rows; rows × 4 accumulators, one per output, each a
// single FMA chain over k, so a group is 4, 8 or 12 independent chains
// fed by m+4 loads per k step. A k tail (k mod lanes) is one more step
// through masked loads, so element k always lands in lane k mod lanes.
// Each row's four accumulators are then reduced together, transposing as
// they fold, into one vector of four outputs: bias, floor and a masked
// store (the last group may have fewer than four b rows; its surplus
// accumulators recompute b row j and are not stored). Every output is
// therefore reduced in one order — lane sums in k order, then
// (l0+l1)+(l2+l3), at float32 that for each half and low + high half —
// whatever m, whatever the group: a row's result does not depend on
// which rows shared its tile.
//
// Registers: AX b rows left, BX dst row stride in bytes, CX k offset
// (negative, counting up to 0: a and b pointers are pre-advanced past
// the full steps), DX scratch, SI bias, DI dst, R8-R10 a rows, R11-R14
// the group's b rows; Y0-Y11 accumulators (row r, column c in Y(4r+c)),
// Y12-Y14 the a vectors, Y15 the b vector. After the k loop Y12-Y15 are
// scratch, bias, floor and store mask.

// 4 ones then 4 zeros (float64 lanes), 8 ones then 8 zeros (float32):
// a load at lane offset lanes-r yields a mask of r leading lanes.
DATA masks64<>+0(SB)/8, $-1
DATA masks64<>+8(SB)/8, $-1
DATA masks64<>+16(SB)/8, $-1
DATA masks64<>+24(SB)/8, $-1
DATA masks64<>+32(SB)/8, $0
DATA masks64<>+40(SB)/8, $0
DATA masks64<>+48(SB)/8, $0
DATA masks64<>+56(SB)/8, $0
GLOBL masks64<>(SB), RODATA|NOPTR, $64

DATA masks32<>+0(SB)/8, $-1
DATA masks32<>+8(SB)/8, $-1
DATA masks32<>+16(SB)/8, $-1
DATA masks32<>+24(SB)/8, $-1
DATA masks32<>+32(SB)/8, $0
DATA masks32<>+40(SB)/8, $0
DATA masks32<>+48(SB)/8, $0
DATA masks32<>+56(SB)/8, $0
GLOBL masks32<>(SB), RODATA|NOPTR, $64

#define ZERO4(XOR, c0, c1, c2, c3) \
	XOR c0, c0, c0; \
	XOR c1, c1, c1; \
	XOR c2, c2, c2; \
	XOR c3, c3, c3

// One b row's k step against one, two or three a rows.
#define BCOL1(LD, FMA, bp, c0) \
	LD  (bp)(CX*1), Y15; \
	FMA Y12, Y15, c0
#define BCOL2(LD, FMA, bp, c0, c1) \
	BCOL1(LD, FMA, bp, c0); \
	FMA Y13, Y15, c1
#define BCOL3(LD, FMA, bp, c0, c1, c2) \
	BCOL2(LD, FMA, bp, c0, c1); \
	FMA Y14, Y15, c2

// The masked k tail of one a row (mask in Y15) against the group.
#define TAILROW(MLD, FMA, ap, c0, c1, c2, c3) \
	MLD (ap), Y15, Y12; \
	MLD (R11), Y15, Y13; \
	FMA Y12, Y13, c0; \
	MLD (R12), Y15, Y13; \
	FMA Y12, Y13, c1; \
	MLD (R13), Y15, Y13; \
	FMA Y12, Y13, c2; \
	MLD (R14), Y15, Y13; \
	FMA Y12, Y13, c3

// Point R12-R14 at the group's b rows 1-3, or at row 0 where the group
// has fewer (AX rows left, DX the b row stride in bytes).
#define GROUPROWS \
	MOVQ R11, R12; \
	MOVQ R11, R13; \
	MOVQ R11, R14; \
	CMPQ AX, $2; \
	JLT  rowsdone; \
	ADDQ DX, R12; \
	CMPQ AX, $3; \
	JLT  rowsdone; \
	LEAQ (R11)(DX*2), R13; \
	CMPQ AX, $4; \
	JLT  rowsdone; \
	LEAQ (R12)(DX*2), R14; \
rowsdone:

// Fold one row's accumulators into four float64 outputs and store them:
// bias in Y13, floor in Y14, store mask in Y15, Y12 scratch. VMAXPD
// returns its second source when either is NaN; that is the sum here,
// so NaN in is NaN out.
#define ROWOUT64(c0, c1, c2, c3, dp) \
	VHADDPD    c1, c0, c0; \
	VHADDPD    c3, c2, c2; \
	VPERM2F128 $0x20, c2, c0, Y12; \
	VPERM2F128 $0x31, c2, c0, c0; \
	VADDPD     c0, Y12, c0; \
	VADDPD     Y13, c0, c0; \
	VMAXPD     c0, Y14, c0; \
	VMASKMOVPD c0, Y15, dp

// func denseTile64(dst, a, b, bias *float64, m, n, k int, relu bool)
TEXT ·denseTile64(SB), NOSPLIT, $32-57
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ bias+24(FP), SI
	MOVQ n+40(FP), AX
	MOVQ k+48(FP), DX
	MOVQ AX, BX
	SHLQ $3, BX

	XORQ CX, CX
	CMPB relu+56(FP), $0
	JNE  havefloor
	MOVQ $0xFFF0000000000000, CX // -Inf
havefloor:
	MOVQ CX, floor-8(SP)

	MOVQ DX, CX
	SHLQ $3, CX                  // row stride of a and b in bytes
	MOVQ CX, stride-16(SP)
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10

	XORQ  R12, R12               // k tail mask address, 0 for no tail
	MOVQ  DX, CX
	ANDQ  $3, CX
	JZ    notail
	LEAQ  masks64<>+32(SB), R12
	SHLQ  $3, CX
	SUBQ  CX, R12
notail:
	MOVQ R12, tailmask-24(SP)

	ANDQ $~3, DX
	SHLQ $3, DX                  // bytes of a row covered by full steps
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	NEGQ DX
	MOVQ DX, negfull-32(SP)

group:
	MOVQ stride-16(SP), DX
	GROUPROWS
	ZERO4(VXORPD, Y0, Y1, Y2, Y3)
	ZERO4(VXORPD, Y4, Y5, Y6, Y7)
	ZERO4(VXORPD, Y8, Y9, Y10, Y11)
	MOVQ  negfull-32(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+32(FP), $2
	JLT   loop1
	JEQ   loop2

loop3:
	VMOVUPD (R8)(CX*1), Y12
	VMOVUPD (R9)(CX*1), Y13
	VMOVUPD (R10)(CX*1), Y14
	BCOL3(VMOVUPD, VFMADD231PD, R11, Y0, Y4, Y8)
	BCOL3(VMOVUPD, VFMADD231PD, R12, Y1, Y5, Y9)
	BCOL3(VMOVUPD, VFMADD231PD, R13, Y2, Y6, Y10)
	BCOL3(VMOVUPD, VFMADD231PD, R14, Y3, Y7, Y11)
	ADDQ $32, CX
	JNZ  loop3
	JMP  tail

loop2:
	VMOVUPD (R8)(CX*1), Y12
	VMOVUPD (R9)(CX*1), Y13
	BCOL2(VMOVUPD, VFMADD231PD, R11, Y0, Y4)
	BCOL2(VMOVUPD, VFMADD231PD, R12, Y1, Y5)
	BCOL2(VMOVUPD, VFMADD231PD, R13, Y2, Y6)
	BCOL2(VMOVUPD, VFMADD231PD, R14, Y3, Y7)
	ADDQ $32, CX
	JNZ  loop2
	JMP  tail

loop1:
	VMOVUPD (R8)(CX*1), Y12
	BCOL1(VMOVUPD, VFMADD231PD, R11, Y0)
	BCOL1(VMOVUPD, VFMADD231PD, R12, Y1)
	BCOL1(VMOVUPD, VFMADD231PD, R13, Y2)
	BCOL1(VMOVUPD, VFMADD231PD, R14, Y3)
	ADDQ $32, CX
	JNZ  loop1

tail:
	MOVQ    tailmask-24(SP), DX
	TESTQ   DX, DX
	JZ      out
	VMOVDQU (DX), Y15
	TAILROW(VMASKMOVPD, VFMADD231PD, R8, Y0, Y1, Y2, Y3)
	CMPQ    m+32(FP), $2
	JLT     out
	TAILROW(VMASKMOVPD, VFMADD231PD, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+32(FP), $3
	JLT     out
	TAILROW(VMASKMOVPD, VFMADD231PD, R10, Y8, Y9, Y10, Y11)

out:
	MOVQ $4, DX                  // store mask: min(AX, 4) leading lanes
	SUBQ AX, DX
	JGE  havemask
	XORQ DX, DX
havemask:
	LEAQ    masks64<>(SB), CX
	VMOVDQU (CX)(DX*8), Y15
	VXORPD  Y13, Y13, Y13
	TESTQ   SI, SI
	JZ      havebias
	VMASKMOVPD (SI), Y15, Y13
	ADDQ    $32, SI
havebias:
	VBROADCASTSD floor-8(SP), Y14
	ROWOUT64(Y0, Y1, Y2, Y3, (DI))
	CMPQ m+32(FP), $2
	JLT  next
	ROWOUT64(Y4, Y5, Y6, Y7, (DI)(BX*1))
	CMPQ m+32(FP), $3
	JLT  next
	ROWOUT64(Y8, Y9, Y10, Y11, (DI)(BX*2))

next:
	ADDQ $32, DI
	MOVQ stride-16(SP), DX
	LEAQ (R11)(DX*4), R11
	SUBQ $4, AX
	JGT  group
	VZEROUPPER
	RET

// Fold one row's accumulators into four float32 outputs and store them:
// bias in X13, floor in X14, store mask in X15, X12 scratch; x0 is c0's
// low half.
#define ROWOUT32(c0, c1, c2, c3, x0, dp) \
	VHADDPS      c1, c0, c0; \
	VHADDPS      c3, c2, c2; \
	VHADDPS      c2, c0, c0; \
	VEXTRACTF128 $1, c0, X12; \
	VADDPS       X12, x0, x0; \
	VADDPS       X13, x0, x0; \
	VMAXPS       x0, X14, x0; \
	VMASKMOVPS   x0, X15, dp

// func denseTile32(dst, a, b, bias *float32, m, n, k int, relu bool)
//
// denseTile64 at 8 lanes to the register: a k step covers 8 elements
// and an output group is 16 bytes.
TEXT ·denseTile32(SB), NOSPLIT, $32-57
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ bias+24(FP), SI
	MOVQ n+40(FP), AX
	MOVQ k+48(FP), DX
	MOVQ AX, BX
	SHLQ $2, BX

	XORQ CX, CX
	CMPB relu+56(FP), $0
	JNE  havefloor
	MOVQ $0xFF800000, CX         // -Inf
havefloor:
	MOVQ CX, floor-8(SP)

	MOVQ DX, CX
	SHLQ $2, CX
	MOVQ CX, stride-16(SP)
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10

	XORQ  R12, R12
	MOVQ  DX, CX
	ANDQ  $7, CX
	JZ    notail
	LEAQ  masks32<>+32(SB), R12
	SHLQ  $2, CX
	SUBQ  CX, R12
notail:
	MOVQ R12, tailmask-24(SP)

	ANDQ $~7, DX
	SHLQ $2, DX
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	NEGQ DX
	MOVQ DX, negfull-32(SP)

group:
	MOVQ stride-16(SP), DX
	GROUPROWS
	ZERO4(VXORPS, Y0, Y1, Y2, Y3)
	ZERO4(VXORPS, Y4, Y5, Y6, Y7)
	ZERO4(VXORPS, Y8, Y9, Y10, Y11)
	MOVQ  negfull-32(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+32(FP), $2
	JLT   loop1
	JEQ   loop2

loop3:
	VMOVUPS (R8)(CX*1), Y12
	VMOVUPS (R9)(CX*1), Y13
	VMOVUPS (R10)(CX*1), Y14
	BCOL3(VMOVUPS, VFMADD231PS, R11, Y0, Y4, Y8)
	BCOL3(VMOVUPS, VFMADD231PS, R12, Y1, Y5, Y9)
	BCOL3(VMOVUPS, VFMADD231PS, R13, Y2, Y6, Y10)
	BCOL3(VMOVUPS, VFMADD231PS, R14, Y3, Y7, Y11)
	ADDQ $32, CX
	JNZ  loop3
	JMP  tail

loop2:
	VMOVUPS (R8)(CX*1), Y12
	VMOVUPS (R9)(CX*1), Y13
	BCOL2(VMOVUPS, VFMADD231PS, R11, Y0, Y4)
	BCOL2(VMOVUPS, VFMADD231PS, R12, Y1, Y5)
	BCOL2(VMOVUPS, VFMADD231PS, R13, Y2, Y6)
	BCOL2(VMOVUPS, VFMADD231PS, R14, Y3, Y7)
	ADDQ $32, CX
	JNZ  loop2
	JMP  tail

loop1:
	VMOVUPS (R8)(CX*1), Y12
	BCOL1(VMOVUPS, VFMADD231PS, R11, Y0)
	BCOL1(VMOVUPS, VFMADD231PS, R12, Y1)
	BCOL1(VMOVUPS, VFMADD231PS, R13, Y2)
	BCOL1(VMOVUPS, VFMADD231PS, R14, Y3)
	ADDQ $32, CX
	JNZ  loop1

tail:
	MOVQ    tailmask-24(SP), DX
	TESTQ   DX, DX
	JZ      out
	VMOVDQU (DX), Y15
	TAILROW(VMASKMOVPS, VFMADD231PS, R8, Y0, Y1, Y2, Y3)
	CMPQ    m+32(FP), $2
	JLT     out
	TAILROW(VMASKMOVPS, VFMADD231PS, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+32(FP), $3
	JLT     out
	TAILROW(VMASKMOVPS, VFMADD231PS, R10, Y8, Y9, Y10, Y11)

out:
	MOVQ $4, DX
	SUBQ AX, DX
	JGE  havemask
	XORQ DX, DX
havemask:
	LEAQ    masks32<>+16(SB), CX
	VMOVDQU (CX)(DX*4), X15
	VXORPS  X13, X13, X13
	TESTQ   SI, SI
	JZ      havebias
	VMASKMOVPS (SI), X15, X13
	ADDQ    $16, SI
havebias:
	VBROADCASTSS floor-8(SP), X14
	ROWOUT32(Y0, Y1, Y2, Y3, X0, (DI))
	CMPQ m+32(FP), $2
	JLT  next
	ROWOUT32(Y4, Y5, Y6, Y7, X4, (DI)(BX*1))
	CMPQ m+32(FP), $3
	JLT  next
	ROWOUT32(Y8, Y9, Y10, Y11, X8, (DI)(BX*2))

next:
	ADDQ $16, DI
	MOVQ stride-16(SP), DX
	LEAQ (R11)(DX*4), R11
	SUBQ $4, AX
	JGT  group
	VZEROUPPER
	RET
