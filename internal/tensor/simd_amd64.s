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

// The training products' micro-kernel (MatMul, TMatMul). One call
// computes, for the m ≤ 3 rows of a tile of dst and all n columns,
//
//	dst[r][j] = Σ_k A(r, k)·b[k][j],  A(r, k) = a[r·ars + k·aks]
//
// with b and dst row stride n: ars, aks = cols(a), 1 is a·b and 1,
// cols(a) is aᵀ·b. With add set (TMatMul, the weight gradient) the sums
// are added to dst instead: one VADDPD of dst's value after the k loop,
// which is axpyUnrolled's sum plus the portable loop's dst[j] += sum[j].
// The j loop runs here, 16 columns at a time: m × 4
// accumulators, zeroed, then per k in ascending order one VMULPD and one
// VADDPD each — the two roundings Go compiles axpyUnrolled's
// dst[i] += alpha*src[i] to at the default GOAMD64. Every output
// therefore has the portable loops' bits; an FMA, rounding once, would
// not. (The operands are even in the order a default build compiles them
// to — b is the multiply's first source, the product the add's — so a
// pair of NaNs keeps the same payload; Go promises no order, and a -race
// build differs.) A last group of w < 16 columns loads b and stores dst
// under masks of w leading lanes, so no byte past a row's end is touched.
//
// Registers: AX columns left, BX row stride of b and dst in bytes, CX k
// steps left, DX a's k stride in bytes, SI the group's columns of b row 0,
// DI its columns of dst row 0, R8-R10 a rows 0-2, R11 b row k, R12 the
// byte offset of a's k, R13 the tail masks; Y0-Y11 accumulators (row r,
// column vector c in Y(4r+c)), Y12 the b vector, Y13 products, Y14-Y15
// a rows 0 and 1 broadcast. Row 2's a is broadcast into Y13 once per
// column vector: there is no sixteenth register to keep it in.

// 16 ones then 16 zeros (float64 lanes): four vectors loaded at lane
// offset 16-w mask w leading lanes.
DATA tail64<>+0(SB)/8, $-1
DATA tail64<>+8(SB)/8, $-1
DATA tail64<>+16(SB)/8, $-1
DATA tail64<>+24(SB)/8, $-1
DATA tail64<>+32(SB)/8, $-1
DATA tail64<>+40(SB)/8, $-1
DATA tail64<>+48(SB)/8, $-1
DATA tail64<>+56(SB)/8, $-1
DATA tail64<>+64(SB)/8, $-1
DATA tail64<>+72(SB)/8, $-1
DATA tail64<>+80(SB)/8, $-1
DATA tail64<>+88(SB)/8, $-1
DATA tail64<>+96(SB)/8, $-1
DATA tail64<>+104(SB)/8, $-1
DATA tail64<>+112(SB)/8, $-1
DATA tail64<>+120(SB)/8, $-1
DATA tail64<>+128(SB)/8, $0
DATA tail64<>+136(SB)/8, $0
DATA tail64<>+144(SB)/8, $0
DATA tail64<>+152(SB)/8, $0
DATA tail64<>+160(SB)/8, $0
DATA tail64<>+168(SB)/8, $0
DATA tail64<>+176(SB)/8, $0
DATA tail64<>+184(SB)/8, $0
DATA tail64<>+192(SB)/8, $0
DATA tail64<>+200(SB)/8, $0
DATA tail64<>+208(SB)/8, $0
DATA tail64<>+216(SB)/8, $0
DATA tail64<>+224(SB)/8, $0
DATA tail64<>+232(SB)/8, $0
DATA tail64<>+240(SB)/8, $0
DATA tail64<>+248(SB)/8, $0
GLOBL tail64<>(SB), RODATA|NOPTR, $256

// b's column vector at byte offset off of row k into Y12: whole, or
// under the tail mask.
#define BVEC(off) VMOVUPD off(R11), Y12
#define BVECTAIL(off) \
	VMOVDQU    off(R13), Y12; \
	VMASKMOVPD off(R11), Y12, Y12

// One column vector (in Y12) against a rows 0, 0-1 or 0-2.
#define PCOL1(c0) \
	VMULPD Y14, Y12, Y13; \
	VADDPD c0, Y13, c0
#define PCOL2(c0, c1) \
	PCOL1(c0); \
	VMULPD Y15, Y12, Y13; \
	VADDPD c1, Y13, c1
#define PCOL3(c0, c1, c2) \
	PCOL2(c0, c1); \
	VBROADCASTSD (R10)(R12*1), Y13; \
	VMULPD       Y13, Y12, Y12; \
	VADDPD       c2, Y12, c2

// One k step of the group for one, two or three rows; LD is BVEC or
// BVECTAIL.
#define PSTEP1(LD) \
	VBROADCASTSD (R8)(R12*1), Y14; \
	LD(0); \
	PCOL1(Y0); \
	LD(32); \
	PCOL1(Y1); \
	LD(64); \
	PCOL1(Y2); \
	LD(96); \
	PCOL1(Y3); \
	ADDQ DX, R12; \
	ADDQ BX, R11
#define PSTEP2(LD) \
	VBROADCASTSD (R8)(R12*1), Y14; \
	VBROADCASTSD (R9)(R12*1), Y15; \
	LD(0); \
	PCOL2(Y0, Y4); \
	LD(32); \
	PCOL2(Y1, Y5); \
	LD(64); \
	PCOL2(Y2, Y6); \
	LD(96); \
	PCOL2(Y3, Y7); \
	ADDQ DX, R12; \
	ADDQ BX, R11
#define PSTEP3(LD) \
	VBROADCASTSD (R8)(R12*1), Y14; \
	VBROADCASTSD (R9)(R12*1), Y15; \
	LD(0); \
	PCOL3(Y0, Y4, Y8); \
	LD(32); \
	PCOL3(Y1, Y5, Y9); \
	LD(64); \
	PCOL3(Y2, Y6, Y10); \
	LD(96); \
	PCOL3(Y3, Y7, Y11); \
	ADDQ DX, R12; \
	ADDQ BX, R11

// Store one row's four accumulators at rp: whole, or under the tail mask.
#define PSTORE(c, off, rp) VMOVUPD c, off(rp)
#define PSTORETAIL(c, off, rp) \
	VMOVDQU    off(R13), Y12; \
	VMASKMOVPD c, Y12, off(rp)

// Add dst's values at rp to one row's four accumulators (add is set):
// whole, or under the tail mask. One VADDPD after the k loop, so a sum
// reaches dst as its portable loop's dst[j] += sum[j] does.
#define PADD(c, off, rp) VADDPD off(rp), c, c
#define PADDTAIL(c, off, rp) \
	VMOVDQU    off(R13), Y12; \
	VMASKMOVPD off(rp), Y12, Y13; \
	VADDPD     Y13, c, c
#define PROW(ST, c0, c1, c2, c3, rp) \
	ST(c0, 0, rp); \
	ST(c1, 32, rp); \
	ST(c2, 64, rp); \
	ST(c3, 96, rp)

// func prodTile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)
TEXT ·prodTile64(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ n+32(FP), AX
	MOVQ ars+48(FP), R10
	SHLQ $3, R10
	LEAQ (R8)(R10*1), R9
	ADDQ R9, R10                 // a rows 1 and 2 (read only when m reaches them)
	MOVQ aks+56(FP), DX
	SHLQ $3, DX
	MOVQ AX, BX
	SHLQ $3, BX

	MOVQ AX, CX
	ANDQ $15, CX                 // w, the last group's columns if it is partial
	SHLQ $3, CX
	LEAQ tail64<>+128(SB), R13
	SUBQ CX, R13

group:
	ZERO4(VXORPD, Y0, Y1, Y2, Y3)
	ZERO4(VXORPD, Y4, Y5, Y6, Y7)
	ZERO4(VXORPD, Y8, Y9, Y10, Y11)
	MOVQ SI, R11
	XORQ R12, R12
	MOVQ k+40(FP), CX
	CMPQ AX, $16
	JLT  tail
	CMPQ m+24(FP), $2
	JLT  full1
	JEQ  full2

full3:
	PSTEP3(BVEC)
	DECQ CX
	JNZ  full3
	JMP  store

full2:
	PSTEP2(BVEC)
	DECQ CX
	JNZ  full2
	JMP  store

full1:
	PSTEP1(BVEC)
	DECQ CX
	JNZ  full1

store:
	CMPB add+64(FP), $0
	JEQ  storerows
	PROW(PADD, Y0, Y1, Y2, Y3, DI)
	CMPQ m+24(FP), $2
	JLT  storerows
	LEAQ (DI)(BX*1), R11
	PROW(PADD, Y4, Y5, Y6, Y7, R11)
	CMPQ m+24(FP), $3
	JLT  storerows
	LEAQ (DI)(BX*2), R11
	PROW(PADD, Y8, Y9, Y10, Y11, R11)

storerows:
	PROW(PSTORE, Y0, Y1, Y2, Y3, DI)
	CMPQ m+24(FP), $2
	JLT  next
	LEAQ (DI)(BX*1), R11
	PROW(PSTORE, Y4, Y5, Y6, Y7, R11)
	CMPQ m+24(FP), $3
	JLT  next
	LEAQ (DI)(BX*2), R11
	PROW(PSTORE, Y8, Y9, Y10, Y11, R11)

next:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, AX
	JNZ  group
	VZEROUPPER
	RET

tail:
	CMPQ m+24(FP), $2
	JLT  tail1
	JEQ  tail2

tail3:
	PSTEP3(BVECTAIL)
	DECQ CX
	JNZ  tail3
	JMP  tailstore

tail2:
	PSTEP2(BVECTAIL)
	DECQ CX
	JNZ  tail2
	JMP  tailstore

tail1:
	PSTEP1(BVECTAIL)
	DECQ CX
	JNZ  tail1

tailstore:
	CMPB add+64(FP), $0
	JEQ  tailrows
	PROW(PADDTAIL, Y0, Y1, Y2, Y3, DI)
	CMPQ m+24(FP), $2
	JLT  tailrows
	LEAQ (DI)(BX*1), R11
	PROW(PADDTAIL, Y4, Y5, Y6, Y7, R11)
	CMPQ m+24(FP), $3
	JLT  tailrows
	LEAQ (DI)(BX*2), R11
	PROW(PADDTAIL, Y8, Y9, Y10, Y11, R11)

tailrows:
	PROW(PSTORETAIL, Y0, Y1, Y2, Y3, DI)
	CMPQ m+24(FP), $2
	JLT  done
	LEAQ (DI)(BX*1), R11
	PROW(PSTORETAIL, Y4, Y5, Y6, Y7, R11)
	CMPQ m+24(FP), $3
	JLT  done
	LEAQ (DI)(BX*2), R11
	PROW(PSTORETAIL, Y8, Y9, Y10, Y11, R11)

done:
	VZEROUPPER
	RET
