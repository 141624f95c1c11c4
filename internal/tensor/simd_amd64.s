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
//	dst[r][j] = max((Σ_k a[r][k]·b[j][k] + bias[j]) + res[r][j], floor)
//
// with a and b contiguous along k (row stride k), dst and res row
// stride n, bias and res nil for none (no add) and floor 0 (relu) or
// -Inf. The j loop runs here, in groups of four b rows; rows × 4
// accumulators, one per output, each a single FMA chain over k, so a
// group is 4, 8 or 12 independent chains fed by m+4 loads per k step.
// A k tail (k mod lanes) is one more step through masked loads, so
// element k always lands in lane k mod lanes. Each row's four
// accumulators are then reduced together, transposing as they fold,
// into one vector of four outputs: bias, the residual under the store
// mask, floor and a masked store (the last group may have fewer than
// four b rows; its surplus accumulators recompute b row j and are
// neither read from res nor stored). Every output is therefore
// reduced in one order — lane sums in k order, then (l0+l1)+(l2+l3),
// at float32 that for each half and low + high half — whatever m,
// whatever the group: a row's result does not depend on which rows
// shared its tile.
//
// Registers: AX b rows left, BX dst row stride in bytes, CX k offset
// (negative, counting up to 0: a and b pointers are pre-advanced past
// the full steps), DX scratch, SI bias, DI dst, R15 res (advanced
// with DI), R8-R10 a rows, R11-R14 the group's b rows; Y0-Y11
// accumulators (row r, column c in Y(4r+c)), Y12-Y14 the a vectors,
// Y15 the b vector. After the k loop Y12-Y15 are scratch, bias, floor
// and store mask.
//
// Each kernel here has a 512-bit twin further down, run where the CPU
// has AVX-512, that gives its bits. Lanes, halves and registers there:
// a zmm register is two of the ymm vectors above, one per 256-bit half.
// The dense twins keep every chain above — element k of a row against a
// b row in lane k mod lanes, accumulated in k order — and put two of
// them in one zmm accumulator, rows 2p and 2p+1 of a in the low and high
// half against one b row broadcast to both; after the k loop each half
// goes back to a ymm register and through ROWOUT64/ROWOUT32 (or their
// residual forms) unchanged.
// The product twin puts 8 columns in a register instead of 4.

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

// Fold one row's accumulators into four float64 outputs and store them
// at dp: bias in Y13, floor in Y14, store mask in Y15, Y12 scratch.
// ROWOUT64R adds the residual at rp after the bias, under the store
// mask, as Add adds a block's input to its last layer's output. VMAXPD
// returns its second source when either is NaN; that is the sum here,
// so NaN in is NaN out.
#define FOLD64(c0, c1, c2, c3) \
	VHADDPD    c1, c0, c0; \
	VHADDPD    c3, c2, c2; \
	VPERM2F128 $0x20, c2, c0, Y12; \
	VPERM2F128 $0x31, c2, c0, c0; \
	VADDPD     c0, Y12, c0; \
	VADDPD     Y13, c0, c0
#define STORE64(c0, dp) \
	VMAXPD     c0, Y14, c0; \
	VMASKMOVPD c0, Y15, dp
#define ROWOUT64(c0, c1, c2, c3, rp, dp) \
	FOLD64(c0, c1, c2, c3); \
	STORE64(c0, dp)
#define ROWOUT64R(c0, c1, c2, c3, rp, dp) \
	FOLD64(c0, c1, c2, c3); \
	VMASKMOVPD rp, Y15, Y12; \
	VADDPD     Y12, c0, c0; \
	STORE64(c0, dp)

// The m ≤ 3 rows of a group through ROWOUT (ROWOUT64 or ROWOUT64R):
// residual rows at R15, dst rows at DI, both of stride BX.
#define OUTROWS64(ROWOUT, mref, done) \
	ROWOUT(Y0, Y1, Y2, Y3, (R15), (DI)); \
	CMPQ mref, $2; \
	JLT  done; \
	ROWOUT(Y4, Y5, Y6, Y7, (R15)(BX*1), (DI)(BX*1)); \
	CMPQ mref, $3; \
	JLT  done; \
	ROWOUT(Y8, Y9, Y10, Y11, (R15)(BX*2), (DI)(BX*2))

// func denseTile64(dst, a, b, bias, res *float64, m, n, k int, relu bool)
TEXT ·denseTile64(SB), NOSPLIT, $32-65
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ bias+24(FP), SI
	MOVQ res+32(FP), R15
	MOVQ n+48(FP), AX
	MOVQ k+56(FP), DX
	MOVQ AX, BX
	SHLQ $3, BX

	XORQ CX, CX
	CMPB relu+64(FP), $0
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
	CMPQ  m+40(FP), $2
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
	CMPQ    m+40(FP), $2
	JLT     out
	TAILROW(VMASKMOVPD, VFMADD231PD, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+40(FP), $3
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
	CMPQ res+32(FP), $0
	JNE  outres
	OUTROWS64(ROWOUT64, m+40(FP), next)
	JMP  next

outres:
	OUTROWS64(ROWOUT64R, m+40(FP), next)

next:
	ADDQ $32, DI
	ADDQ $32, R15
	MOVQ stride-16(SP), DX
	LEAQ (R11)(DX*4), R11
	SUBQ $4, AX
	JGT  group
	VZEROUPPER
	RET

// Fold one row's accumulators into four float32 outputs and store them
// at dp: bias in X13, floor in X14, store mask in X15, X12 scratch; x0
// is c0's low half. ROWOUT32R adds the residual at rp after the bias.
#define FOLD32(c0, c1, c2, c3, x0) \
	VHADDPS      c1, c0, c0; \
	VHADDPS      c3, c2, c2; \
	VHADDPS      c2, c0, c0; \
	VEXTRACTF128 $1, c0, X12; \
	VADDPS       X12, x0, x0; \
	VADDPS       X13, x0, x0
#define STORE32(x0, dp) \
	VMAXPS     x0, X14, x0; \
	VMASKMOVPS x0, X15, dp
#define ROWOUT32(c0, c1, c2, c3, x0, rp, dp) \
	FOLD32(c0, c1, c2, c3, x0); \
	STORE32(x0, dp)
#define ROWOUT32R(c0, c1, c2, c3, x0, rp, dp) \
	FOLD32(c0, c1, c2, c3, x0); \
	VMASKMOVPS rp, X15, X12; \
	VADDPS     X12, x0, x0; \
	STORE32(x0, dp)

// OUTROWS64 at float32.
#define OUTROWS32(ROWOUT, mref, done) \
	ROWOUT(Y0, Y1, Y2, Y3, X0, (R15), (DI)); \
	CMPQ mref, $2; \
	JLT  done; \
	ROWOUT(Y4, Y5, Y6, Y7, X4, (R15)(BX*1), (DI)(BX*1)); \
	CMPQ mref, $3; \
	JLT  done; \
	ROWOUT(Y8, Y9, Y10, Y11, X8, (R15)(BX*2), (DI)(BX*2))

// func denseTile32(dst, a, b, bias, res *float32, m, n, k int, relu bool)
//
// denseTile64 at 8 lanes to the register: a k step covers 8 elements
// and an output group is 16 bytes.
TEXT ·denseTile32(SB), NOSPLIT, $32-65
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ bias+24(FP), SI
	MOVQ res+32(FP), R15
	MOVQ n+48(FP), AX
	MOVQ k+56(FP), DX
	MOVQ AX, BX
	SHLQ $2, BX

	XORQ CX, CX
	CMPB relu+64(FP), $0
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
	CMPQ  m+40(FP), $2
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
	CMPQ    m+40(FP), $2
	JLT     out
	TAILROW(VMASKMOVPS, VFMADD231PS, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+40(FP), $3
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
	CMPQ res+32(FP), $0
	JNE  outres
	OUTROWS32(ROWOUT32, m+40(FP), next)
	JMP  next

outres:
	OUTROWS32(ROWOUT32R, m+40(FP), next)

next:
	ADDQ $16, DI
	ADDQ $16, R15
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

// The 512-bit dense micro-kernels (AVX-512 F and VL). One call computes
// what denseTile64/denseTile32 compute, for 2 ≤ m ≤ 6 rows of a and
// n ≥ 8 rows of b, with the same bits: each zmm accumulator holds two of
// the 256-bit kernel's chains against one b row — row 2p's in its low
// half, row 2p+1's in its high half. A k step loads rows 2p and 2p+1 into
// one register (a 256-bit load and a VINSERTF64X4) and broadcasts the b
// row's 256 bits to both halves (VBROADCASTF64X4), so element k still
// lands in lane k mod lanes of its own chain, in k order, as one FMA with
// the operands in the 256-bit kernel's order. A k tail is one more step
// through loads under the opmask K1, which read nothing past a row's end
// and zero the lanes they skip, as the 256-bit kernel's masked loads do.
// After the k loop the accumulators are spilled to a 64-byte-aligned
// block of the frame, and each half is reloaded into a ymm register and
// folded by ROWOUT64/ROWOUT32, the 256-bit kernel's own instructions, so
// every output is reduced in exactly its order. An odd m repeats row m-1
// in the last register's high half and does not store it.
//
// b rows go in groups of eight: 3 pairs × 8 rows = 24 accumulators, fed
// per k step by 3 pair loads and 8 broadcasts. A last group of fewer
// than eight rows is moved back to end at row n: it recomputes outputs
// the group before it stored, with the same bits, and stores them again,
// so ROWOUT's store mask is all ones and nothing past the last row is
// read.
//
// Registers: AX the group's first b row, BX dst row stride in bytes, CX
// k offset (negative, counting up to 0, as in denseTile64), DX row
// stride of a and b in bytes, R14, R15 and SI the group's b rows 0, 3
// and 6, advanced by the k loop (row 1 is (R14)(DX*1), row 2
// (R14)(DX*2), and so on), DI dst, R8-R13 a rows 0-5; Z0-Z23
// accumulators (pair p, b row c in Z(8p+c)), Z24-Z26 the pairs, Z27 the
// broadcast b step. The fold uses CX for the spill block, DX and R14 for
// dst rows, R15, SI and AX for residual rows, Y0-Y3 for one row's chains
// and Y11-Y15 for the epilogue.

// Zero the accumulators.
#define ZERO24 \
	ZERO4(VPXORQ, Z0, Z1, Z2, Z3); \
	ZERO4(VPXORQ, Z4, Z5, Z6, Z7); \
	ZERO4(VPXORQ, Z8, Z9, Z10, Z11); \
	ZERO4(VPXORQ, Z12, Z13, Z14, Z15); \
	ZERO4(VPXORQ, Z16, Z17, Z18, Z19); \
	ZERO4(VPXORQ, Z20, Z21, Z22, Z23)

// One pair's k step: row lo's 256 bits low, row hi's high.
#define PAIR(lo, hi, z, y) \
	VMOVUPD      (lo)(CX*1), y; \
	VINSERTF64X4 $1, (hi)(CX*1), z, z

// One b row's k step (at wp) against one, two or three pairs.
#define ZCOL1(FMA, wp, c0) \
	VBROADCASTF64X4 wp, Z27; \
	FMA             Z24, Z27, c0
#define ZCOL2(FMA, wp, c0, c1) \
	ZCOL1(FMA, wp, c0); \
	FMA Z25, Z27, c1
#define ZCOL3(FMA, wp, c0, c1, c2) \
	ZCOL2(FMA, wp, c0, c1); \
	FMA Z26, Z27, c2

// A full k step of the group's eight b rows for one, two or three pairs.
#define ZADVANCE \
	ADDQ $32, R14; \
	ADDQ $32, R15; \
	ADDQ $32, SI
#define ZSTEP1(FMA) \
	ZCOL1(FMA, (R14), Z0); \
	ZCOL1(FMA, (R14)(DX*1), Z1); \
	ZCOL1(FMA, (R14)(DX*2), Z2); \
	ZCOL1(FMA, (R15), Z3); \
	ZCOL1(FMA, (R15)(DX*1), Z4); \
	ZCOL1(FMA, (R15)(DX*2), Z5); \
	ZCOL1(FMA, (SI), Z6); \
	ZCOL1(FMA, (SI)(DX*1), Z7); \
	ZADVANCE
#define ZSTEP2(FMA) \
	ZCOL2(FMA, (R14), Z0, Z8); \
	ZCOL2(FMA, (R14)(DX*1), Z1, Z9); \
	ZCOL2(FMA, (R14)(DX*2), Z2, Z10); \
	ZCOL2(FMA, (R15), Z3, Z11); \
	ZCOL2(FMA, (R15)(DX*1), Z4, Z12); \
	ZCOL2(FMA, (R15)(DX*2), Z5, Z13); \
	ZCOL2(FMA, (SI), Z6, Z14); \
	ZCOL2(FMA, (SI)(DX*1), Z7, Z15); \
	ZADVANCE
#define ZSTEP3(FMA) \
	ZCOL3(FMA, (R14), Z0, Z8, Z16); \
	ZCOL3(FMA, (R14)(DX*1), Z1, Z9, Z17); \
	ZCOL3(FMA, (R14)(DX*2), Z2, Z10, Z18); \
	ZCOL3(FMA, (R15), Z3, Z11, Z19); \
	ZCOL3(FMA, (R15)(DX*1), Z4, Z12, Z20); \
	ZCOL3(FMA, (R15)(DX*2), Z5, Z13, Z21); \
	ZCOL3(FMA, (SI), Z6, Z14, Z22); \
	ZCOL3(FMA, (SI)(DX*1), Z7, Z15, Z23); \
	ZADVANCE

// The k tail: the pair and b row loads under K1 (MLD is VMOVUPD.Z or
// VMOVUPS.Z), then the same FMAs, for all three pairs: rows past m
// repeat row m-1, so every load is inside a.
#define TAILPAIR(MLD, lo, hi, z, y) \
	MLD          (lo), K1, y; \
	MLD          (hi), K1, Y27; \
	VINSERTF64X4 $1, Y27, z, z
#define TAILCOL(MLD, FMA, wp, c0, c1, c2) \
	MLD          wp, K1, Y27; \
	VINSERTF64X4 $1, Y27, Z27, Z27; \
	FMA          Z24, Z27, c0; \
	FMA          Z25, Z27, c1; \
	FMA          Z26, Z27, c2
#define ZTAIL(MLD, FMA) \
	TAILPAIR(MLD, R8, R9, Z24, Y24); \
	TAILPAIR(MLD, R10, R11, Z25, Y25); \
	TAILPAIR(MLD, R12, R13, Z26, Y26); \
	TAILCOL(MLD, FMA, (R14), Z0, Z8, Z16); \
	TAILCOL(MLD, FMA, (R14)(DX*1), Z1, Z9, Z17); \
	TAILCOL(MLD, FMA, (R14)(DX*2), Z2, Z10, Z18); \
	TAILCOL(MLD, FMA, (R15), Z3, Z11, Z19); \
	TAILCOL(MLD, FMA, (R15)(DX*1), Z4, Z12, Z20); \
	TAILCOL(MLD, FMA, (R15)(DX*2), Z5, Z13, Z21); \
	TAILCOL(MLD, FMA, (SI), Z6, Z14, Z22); \
	TAILCOL(MLD, FMA, (SI)(DX*1), Z7, Z15, Z23)

// Spill the accumulators to the block at CX: Z(i) at 64·i.
#define SPILL4(c0, c1, c2, c3, off) \
	VMOVUPD c0, off(CX); \
	VMOVUPD c1, (off+64)(CX); \
	VMOVUPD c2, (off+128)(CX); \
	VMOVUPD c3, (off+192)(CX)
#define SPILL24 \
	SPILL4(Z0, Z1, Z2, Z3, 0); \
	SPILL4(Z4, Z5, Z6, Z7, 256); \
	SPILL4(Z8, Z9, Z10, Z11, 512); \
	SPILL4(Z12, Z13, Z14, Z15, 768); \
	SPILL4(Z16, Z17, Z18, Z19, 1024); \
	SPILL4(Z20, Z21, Z22, Z23, 1280)

// One row's chains for four b rows, at spill offset o (+64 per b row),
// into Y0-Y3; then ROWOUT folds them, with the residual at rp, and
// stores them at dp.
#define FOLDROW(ROWOUT, o, rp, dp) \
	VMOVUPD o(CX), Y0; \
	VMOVUPD (o+64)(CX), Y1; \
	VMOVUPD (o+128)(CX), Y2; \
	VMOVUPD (o+192)(CX), Y3; \
	ROWOUT(rp, dp)

// One half of the group's outputs — b rows 4h to 4h+3, spill offset
// off = 256h, dst and residual offset doff — for each of the m rows: row
// 1 is the high half of row 0's chains (+32), rows 2 and 4 the next
// pairs (+512, +1024); dst rows 3 and 5 are addressed from DX = DI+2·BX
// and R14 = DI+4·BX, residual rows from R15, SI = R15+2·BX and AX =
// R15+4·BX alike.
#define FOLDHALF(ROWOUT, off, doff, done) \
	FOLDROW(ROWOUT, off, doff(R15), doff(DI)); \
	FOLDROW(ROWOUT, (off+32), doff(R15)(BX*1), doff(DI)(BX*1)); \
	CMPQ rows-40(SP), $3; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+512), doff(R15)(BX*2), doff(DI)(BX*2)); \
	CMPQ rows-40(SP), $4; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+544), doff(SI)(BX*1), doff(DX)(BX*1)); \
	CMPQ rows-40(SP), $5; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+1024), doff(R15)(BX*4), doff(DI)(BX*4)); \
	CMPQ rows-40(SP), $6; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+1056), doff(AX)(BX*1), doff(R14)(BX*1))

#define ROWOUT64Y(rp, dp) ROWOUT64(Y0, Y1, Y2, Y3, rp, dp)
#define ROWOUT64YR(rp, dp) ROWOUT64R(Y0, Y1, Y2, Y3, rp, dp)
#define ROWOUT32Y(rp, dp) ROWOUT32(Y0, Y1, Y2, Y3, X0, rp, dp)
#define ROWOUT32YR(rp, dp) ROWOUT32R(Y0, Y1, Y2, Y3, X0, rp, dp)

// Point R8-R13 at a rows 0-5, rows past m repeating row m-1 (R8 a, CX
// the row stride in bytes, R15 m).
#define AROWS \
	LEAQ (R8)(CX*1), R9; \
	MOVQ R9, R10; \
	MOVQ R9, R11; \
	MOVQ R9, R12; \
	MOVQ R9, R13; \
	CMPQ R15, $3; \
	JLT  arows; \
	ADDQ CX, R10; \
	MOVQ R10, R11; \
	MOVQ R10, R12; \
	MOVQ R10, R13; \
	CMPQ R15, $4; \
	JLT  arows; \
	ADDQ CX, R11; \
	MOVQ R11, R12; \
	MOVQ R11, R13; \
	CMPQ R15, $5; \
	JLT  arows; \
	ADDQ CX, R12; \
	MOVQ R12, R13; \
	CMPQ R15, $6; \
	JLT  arows; \
	ADDQ CX, R13; \
arows:

// Set K1 to the k tail's lanes (CX the tail's length in lanes; no lanes
// for no tail), then pre-advance the a rows past the full steps (DX
// their bytes) and record the k loop's starting offset.
#define KSETUP \
	MOVL  $1, R15; \
	SHLL  CX, R15; \
	DECL  R15; \
	KMOVW R15, K1; \
	ADDQ  DX, R8; \
	ADDQ  DX, R9; \
	ADDQ  DX, R10; \
	ADDQ  DX, R11; \
	ADDQ  DX, R12; \
	ADDQ  DX, R13; \
	NEGQ  DX; \
	MOVQ  DX, negfull-24(SP)

// Point R14, R15 and SI at the group's b rows 0, 3 and 6 (AX the first
// row) and zero the accumulators.
#define GROUP(bref) \
	MOVQ  AX, first-32(SP); \
	MOVQ  stride-16(SP), DX; \
	MOVQ  AX, R14; \
	IMULQ DX, R14; \
	ADDQ  bref, R14; \
	LEAQ  (R14)(DX*2), R15; \
	ADDQ  DX, R15; \
	LEAQ  (R15)(DX*2), SI; \
	ADDQ  DX, SI; \
	ZERO24

// After a group: the next one, moved back to end at row n if it would
// pass it.
#define NEXTGROUP(nref) \
	MOVQ first-32(SP), AX; \
	ADDQ $8, AX; \
	MOVQ nref, CX; \
	CMPQ AX, CX; \
	JGE  done; \
	SUBQ $8, CX; \
	CMPQ AX, CX; \
	JLE  group; \
	MOVQ CX, AX; \
	JMP  group

// Frame: the spill block (1536 bytes, aligned up to 64 within the
// frame's lowest 1600), then five locals.
//
// func dense512Tile64(dst, a, b, bias, res *float64, m, n, k int, relu bool)
TEXT ·dense512Tile64(SB), $1640-65
	MOVQ a+8(FP), R8
	MOVQ k+56(FP), DX

	XORQ CX, CX
	CMPB relu+64(FP), $0
	JNE  havefloor
	MOVQ $0xFFF0000000000000, CX // -Inf
havefloor:
	MOVQ CX, floor-8(SP)

	MOVQ DX, CX
	SHLQ $3, CX                  // row stride of a and b in bytes
	MOVQ CX, stride-16(SP)
	MOVQ m+40(FP), R15
	MOVQ R15, rows-40(SP)
	AROWS
	MOVQ DX, CX
	ANDQ $3, CX
	ANDQ $~3, DX
	SHLQ $3, DX                  // bytes of a row covered by full steps
	KSETUP
	XORQ AX, AX

group:
	GROUP(b+16(FP))
	MOVQ  negfull-24(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+40(FP), $3
	JLT   loop1
	CMPQ  m+40(FP), $5
	JLT   loop2

loop3:
	PAIR(R8, R9, Z24, Y24)
	PAIR(R10, R11, Z25, Y25)
	PAIR(R12, R13, Z26, Y26)
	ZSTEP3(VFMADD231PD)
	ADDQ $32, CX
	JNZ  loop3
	JMP  tail

loop2:
	PAIR(R8, R9, Z24, Y24)
	PAIR(R10, R11, Z25, Y25)
	ZSTEP2(VFMADD231PD)
	ADDQ $32, CX
	JNZ  loop2
	JMP  tail

loop1:
	PAIR(R8, R9, Z24, Y24)
	ZSTEP1(VFMADD231PD)
	ADDQ $32, CX
	JNZ  loop1

tail:
	KORTESTW K1, K1
	JZ       fold
	ZTAIL(VMOVUPD.Z, VFMADD231PD)

fold:
	LEAQ   63(SP), CX
	ANDQ   $~63, CX
	SPILL24
	MOVQ   first-32(SP), AX
	MOVQ   n+48(FP), BX
	SHLQ   $3, BX
	MOVQ   dst+0(FP), DI
	LEAQ   (DI)(AX*8), DI        // the group's outputs in dst row 0
	LEAQ   (DI)(BX*2), DX
	LEAQ   (DI)(BX*4), R14
	VXORPD Y13, Y13, Y13
	VXORPD Y11, Y11, Y11
	MOVQ   bias+24(FP), SI
	TESTQ  SI, SI
	JZ     havebias
	VMOVUPD (SI)(AX*8), Y13
	VMOVUPD 32(SI)(AX*8), Y11
havebias:
	VBROADCASTSD floor-8(SP), Y14
	VPCMPEQQ     Y15, Y15, Y15   // store mask: every lane
	MOVQ         res+32(FP), R15
	LEAQ         (R15)(AX*8), R15 // the group's residuals in row 0
	LEAQ         (R15)(BX*2), SI
	LEAQ         (R15)(BX*4), AX
	CMPQ         res+32(FP), $0
	JNE          foldres
	FOLDHALF(ROWOUT64Y, 0, 0, half0)
half0:
	VMOVAPD Y11, Y13
	FOLDHALF(ROWOUT64Y, 256, 32, half1)
half1:
	NEXTGROUP(n+48(FP))

foldres:
	FOLDHALF(ROWOUT64YR, 0, 0, half0r)
half0r:
	VMOVAPD Y11, Y13
	FOLDHALF(ROWOUT64YR, 256, 32, half1r)
half1r:
	NEXTGROUP(n+48(FP))

done:
	VZEROUPPER
	RET

// func dense512Tile32(dst, a, b, bias, res *float32, m, n, k int, relu bool)
//
// dense512Tile64 at 8 lanes to the half: a k step covers 8 elements and
// a half group's outputs are 16 bytes.
TEXT ·dense512Tile32(SB), $1640-65
	MOVQ a+8(FP), R8
	MOVQ k+56(FP), DX

	XORQ CX, CX
	CMPB relu+64(FP), $0
	JNE  havefloor
	MOVQ $0xFF800000, CX         // -Inf
havefloor:
	MOVQ CX, floor-8(SP)

	MOVQ DX, CX
	SHLQ $2, CX
	MOVQ CX, stride-16(SP)
	MOVQ m+40(FP), R15
	MOVQ R15, rows-40(SP)
	AROWS
	MOVQ DX, CX
	ANDQ $7, CX
	ANDQ $~7, DX
	SHLQ $2, DX
	KSETUP
	XORQ AX, AX

group:
	GROUP(b+16(FP))
	MOVQ  negfull-24(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+40(FP), $3
	JLT   loop1
	CMPQ  m+40(FP), $5
	JLT   loop2

loop3:
	PAIR(R8, R9, Z24, Y24)
	PAIR(R10, R11, Z25, Y25)
	PAIR(R12, R13, Z26, Y26)
	ZSTEP3(VFMADD231PS)
	ADDQ $32, CX
	JNZ  loop3
	JMP  tail

loop2:
	PAIR(R8, R9, Z24, Y24)
	PAIR(R10, R11, Z25, Y25)
	ZSTEP2(VFMADD231PS)
	ADDQ $32, CX
	JNZ  loop2
	JMP  tail

loop1:
	PAIR(R8, R9, Z24, Y24)
	ZSTEP1(VFMADD231PS)
	ADDQ $32, CX
	JNZ  loop1

tail:
	KORTESTW K1, K1
	JZ       fold
	ZTAIL(VMOVUPS.Z, VFMADD231PS)

fold:
	LEAQ   63(SP), CX
	ANDQ   $~63, CX
	SPILL24
	MOVQ   first-32(SP), AX
	MOVQ   n+48(FP), BX
	SHLQ   $2, BX
	MOVQ   dst+0(FP), DI
	LEAQ   (DI)(AX*4), DI
	LEAQ   (DI)(BX*2), DX
	LEAQ   (DI)(BX*4), R14
	VXORPS X13, X13, X13
	VXORPS X11, X11, X11
	MOVQ   bias+24(FP), SI
	TESTQ  SI, SI
	JZ     havebias
	VMOVUPS (SI)(AX*4), X13
	VMOVUPS 16(SI)(AX*4), X11
havebias:
	VBROADCASTSS floor-8(SP), X14
	VPCMPEQD     X15, X15, X15
	MOVQ         res+32(FP), R15
	LEAQ         (R15)(AX*4), R15
	LEAQ         (R15)(BX*2), SI
	LEAQ         (R15)(BX*4), AX
	CMPQ         res+32(FP), $0
	JNE          foldres
	FOLDHALF(ROWOUT32Y, 0, 0, half0)
half0:
	VMOVAPS X11, X13
	FOLDHALF(ROWOUT32Y, 256, 16, half1)
half1:
	NEXTGROUP(n+48(FP))

foldres:
	FOLDHALF(ROWOUT32YR, 0, 0, half0r)
half0r:
	VMOVAPS X11, X13
	FOLDHALF(ROWOUT32YR, 256, 16, half1r)
half1r:
	NEXTGROUP(n+48(FP))

done:
	VZEROUPPER
	RET

// The training products' 512-bit twin, prod512Tile64: prodTile64 with
// 32 columns to a group, four zmm vectors a row. Each term is still one
// VMULPD and one VADDPD with prodTile64's operands (b the multiply's
// first source, the product the add's), and each output's arithmetic is
// its own lane's, so every output has prodTile64's bits. A last group of
// w < 32 columns loads b, and loads and stores dst, under the opmasks
// K1-K4 (vector v's lanes of w), which touch nothing past a row's end.
//
// Registers as in prodTile64, with K1-K4 in place of R13's mask table
// (R13 only builds them); Z0-Z11
// accumulators (row r, column vector c in Z(4r+c)), Z12 the b vector,
// Z13 products, Z14-Z16 a rows 0-2 broadcast.

// b's column vector at byte offset off of row k into Z12: whole, or
// under the tail mask kv.
#define ZBVEC(off, kv) VMOVUPD off(R11), Z12
#define ZBVECTAIL(off, kv) VMOVUPD.Z off(R11), kv, Z12

// One column vector (in Z12) against a rows 0, 0-1 or 0-2.
#define ZPCOL1(c0) \
	VMULPD Z14, Z12, Z13; \
	VADDPD c0, Z13, c0
#define ZPCOL2(c0, c1) \
	ZPCOL1(c0); \
	VMULPD Z15, Z12, Z13; \
	VADDPD c1, Z13, c1
#define ZPCOL3(c0, c1, c2) \
	ZPCOL2(c0, c1); \
	VMULPD Z16, Z12, Z13; \
	VADDPD c2, Z13, c2

// One k step of the group for one, two or three rows; LD is ZBVEC or
// ZBVECTAIL.
#define ZPNEXT \
	ADDQ DX, R12; \
	ADDQ BX, R11
#define ZPSTEP1(LD) \
	VBROADCASTSD (R8)(R12*1), Z14; \
	LD(0, K1); \
	ZPCOL1(Z0); \
	LD(64, K2); \
	ZPCOL1(Z1); \
	LD(128, K3); \
	ZPCOL1(Z2); \
	LD(192, K4); \
	ZPCOL1(Z3); \
	ZPNEXT
#define ZPSTEP2(LD) \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	LD(0, K1); \
	ZPCOL2(Z0, Z4); \
	LD(64, K2); \
	ZPCOL2(Z1, Z5); \
	LD(128, K3); \
	ZPCOL2(Z2, Z6); \
	LD(192, K4); \
	ZPCOL2(Z3, Z7); \
	ZPNEXT
#define ZPSTEP3(LD) \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	VBROADCASTSD (R10)(R12*1), Z16; \
	LD(0, K1); \
	ZPCOL3(Z0, Z4, Z8); \
	LD(64, K2); \
	ZPCOL3(Z1, Z5, Z9); \
	LD(128, K3); \
	ZPCOL3(Z2, Z6, Z10); \
	LD(192, K4); \
	ZPCOL3(Z3, Z7, Z11); \
	ZPNEXT

// Store one row's four accumulators at rp, or add dst's values to them
// first (add is set): whole, or under the tail masks.
#define ZPSTORE(c, off, kv, rp) VMOVUPD c, off(rp)
#define ZPSTORETAIL(c, off, kv, rp) VMOVUPD c, kv, off(rp)
#define ZPADD(c, off, kv, rp) VADDPD off(rp), c, c
#define ZPADDTAIL(c, off, kv, rp) \
	VMOVUPD.Z off(rp), kv, Z13; \
	VADDPD    Z13, c, c
#define ZPROW(ST, c0, c1, c2, c3, rp) \
	ST(c0, 0, K1, rp); \
	ST(c1, 64, K2, rp); \
	ST(c2, 128, K3, rp); \
	ST(c3, 192, K4, rp)

// The group's m rows through ZPROW(ST).
#define ZPROWS(ST, done, mref) \
	ZPROW(ST, Z0, Z1, Z2, Z3, DI); \
	CMPQ mref, $2; \
	JLT  done; \
	LEAQ (DI)(BX*1), R11; \
	ZPROW(ST, Z4, Z5, Z6, Z7, R11); \
	CMPQ mref, $3; \
	JLT  done; \
	LEAQ (DI)(BX*2), R11; \
	ZPROW(ST, Z8, Z9, Z10, Z11, R11)

// func prod512Tile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)
TEXT ·prod512Tile64(SB), NOSPLIT, $0-65
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

	MOVQ  AX, CX                 // w, the last group's columns if it is partial
	ANDQ  $31, CX
	MOVQ  $1, R13
	SHLQ  CX, R13
	DECQ  R13                    // w leading bits, 8 per vector
	KMOVW R13, K1
	SHRQ  $8, R13
	KMOVW R13, K2
	SHRQ  $8, R13
	KMOVW R13, K3
	SHRQ  $8, R13
	KMOVW R13, K4

group:
	ZERO4(VPXORQ, Z0, Z1, Z2, Z3)
	ZERO4(VPXORQ, Z4, Z5, Z6, Z7)
	ZERO4(VPXORQ, Z8, Z9, Z10, Z11)
	MOVQ SI, R11
	XORQ R12, R12
	MOVQ k+40(FP), CX
	CMPQ AX, $32
	JLT  tail
	CMPQ m+24(FP), $2
	JLT  full1
	JEQ  full2

full3:
	ZPSTEP3(ZBVEC)
	DECQ CX
	JNZ  full3
	JMP  store

full2:
	ZPSTEP2(ZBVEC)
	DECQ CX
	JNZ  full2
	JMP  store

full1:
	ZPSTEP1(ZBVEC)
	DECQ CX
	JNZ  full1

store:
	CMPB add+64(FP), $0
	JEQ  storerows
	ZPROWS(ZPADD, storerows, m+24(FP))

storerows:
	ZPROWS(ZPSTORE, next, m+24(FP))

next:
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, AX
	JNZ  group
	VZEROUPPER
	RET

tail:
	CMPQ m+24(FP), $2
	JLT  tail1
	JEQ  tail2

tail3:
	ZPSTEP3(ZBVECTAIL)
	DECQ CX
	JNZ  tail3
	JMP  tailstore

tail2:
	ZPSTEP2(ZBVECTAIL)
	DECQ CX
	JNZ  tail2
	JMP  tailstore

tail1:
	ZPSTEP1(ZBVECTAIL)
	DECQ CX
	JNZ  tail1

tailstore:
	CMPB add+64(FP), $0
	JEQ  tailrows
	ZPROWS(ZPADDTAIL, tailrows, m+24(FP))

tailrows:
	ZPROWS(ZPSTORETAIL, done, m+24(FP))

done:
	VZEROUPPER
	RET
