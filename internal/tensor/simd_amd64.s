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

// The dot micro-kernels: MatMulT and MatMulT32, dst = a·bᵀ with b stored
// out×in. One call computes, for the m ≤ 3 rows of a and every one of
// the n rows of b,
//
//	dst[r][j] = Σ_k a[r][k]·b[j][k]
//
// with a and b contiguous along k (row stride k) and dst row stride n.
// The j loop runs here, in groups of four b rows; rows × 4
// accumulators, one per output, each a single FMA chain over k, so a
// group is 4, 8 or 12 independent chains fed by m+4 loads per k step.
// A k tail (k mod lanes) is one more step through masked loads, so
// element k always lands in lane k mod lanes (a lane the tail skips
// adds +0). Each row's four accumulators are then reduced together,
// transposing as they fold, into one vector of four outputs, +0 is
// added and the vector is stored under a mask (the last group may have
// fewer than four b rows; its surplus accumulators recompute b row j
// and are not stored). Every output is therefore reduced in one order —
// lane sums in k order, then (l0+l1)+(l2+l3), at float32 that for each
// half and low + high half, then + 0 — whatever m, whatever the group:
// a row's result does not depend on which rows shared its tile.
//
// Registers: AX b rows left, BX dst row stride in bytes, CX k offset
// (negative, counting up to 0: a and b pointers are pre-advanced past
// the full steps), DX scratch, DI dst, R8-R10 a rows, R11-R14 the
// group's b rows; Y0-Y11 accumulators (row r, column c in Y(4r+c)),
// Y12-Y14 the a vectors, Y15 the b vector. After the k loop Y12 is
// scratch, Y13 +0 and Y15 the store mask.
//
// Each kernel here has a 512-bit twin further down, run where the CPU
// has AVX-512, that gives its bits. Lanes, halves and registers there:
// a zmm register is two of the ymm vectors above, one per 256-bit half.
// The dot twins keep every chain above — element k of a row against a
// b row in lane k mod lanes, accumulated in k order — and put two of
// them in one zmm accumulator, rows 2p and 2p+1 of a in the low and high
// half against one b row broadcast to both; after the k loop each half
// goes back to a ymm register and through ROWOUT64/ROWOUT32 unchanged.
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

// Fold one row's accumulators into four float64 outputs, add +0 (Y13)
// and store them at dp under the store mask in Y15; Y12 scratch.
#define ROWOUT64(c0, c1, c2, c3, dp) \
	VHADDPD    c1, c0, c0; \
	VHADDPD    c3, c2, c2; \
	VPERM2F128 $0x20, c2, c0, Y12; \
	VPERM2F128 $0x31, c2, c0, c0; \
	VADDPD     c0, Y12, c0; \
	VADDPD     Y13, c0, c0; \
	VMASKMOVPD c0, Y15, dp

// The m ≤ 3 rows of a group through ROWOUT64: dst rows at DI, stride BX.
#define OUTROWS64(mref, done) \
	ROWOUT64(Y0, Y1, Y2, Y3, (DI)); \
	CMPQ mref, $2; \
	JLT  done; \
	ROWOUT64(Y4, Y5, Y6, Y7, (DI)(BX*1)); \
	CMPQ mref, $3; \
	JLT  done; \
	ROWOUT64(Y8, Y9, Y10, Y11, (DI)(BX*2))

// func dotTile64(dst, a, b *float64, m, n, k int)
TEXT ·dotTile64(SB), NOSPLIT, $24-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ n+32(FP), AX
	MOVQ k+40(FP), DX
	MOVQ AX, BX
	SHLQ $3, BX

	MOVQ DX, CX
	SHLQ $3, CX                  // row stride of a and b in bytes
	MOVQ CX, stride-8(SP)
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
	MOVQ R12, tailmask-16(SP)

	ANDQ $~3, DX
	SHLQ $3, DX                  // bytes of a row covered by full steps
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	NEGQ DX
	MOVQ DX, negfull-24(SP)

group:
	MOVQ stride-8(SP), DX
	GROUPROWS
	ZERO4(VXORPD, Y0, Y1, Y2, Y3)
	ZERO4(VXORPD, Y4, Y5, Y6, Y7)
	ZERO4(VXORPD, Y8, Y9, Y10, Y11)
	MOVQ  negfull-24(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+24(FP), $2
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
	MOVQ    tailmask-16(SP), DX
	TESTQ   DX, DX
	JZ      out
	VMOVDQU (DX), Y15
	TAILROW(VMASKMOVPD, VFMADD231PD, R8, Y0, Y1, Y2, Y3)
	CMPQ    m+24(FP), $2
	JLT     out
	TAILROW(VMASKMOVPD, VFMADD231PD, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+24(FP), $3
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
	OUTROWS64(m+24(FP), next)

next:
	ADDQ $32, DI
	MOVQ stride-8(SP), DX
	LEAQ (R11)(DX*4), R11
	SUBQ $4, AX
	JGT  group
	VZEROUPPER
	RET

// Fold one row's accumulators into four float32 outputs, add +0 (X13)
// and store them at dp under the store mask in X15; X12 scratch, x0 c0's
// low half.
#define ROWOUT32(c0, c1, c2, c3, x0, dp) \
	VHADDPS      c1, c0, c0; \
	VHADDPS      c3, c2, c2; \
	VHADDPS      c2, c0, c0; \
	VEXTRACTF128 $1, c0, X12; \
	VADDPS       X12, x0, x0; \
	VADDPS       X13, x0, x0; \
	VMASKMOVPS   x0, X15, dp

// OUTROWS64 at float32.
#define OUTROWS32(mref, done) \
	ROWOUT32(Y0, Y1, Y2, Y3, X0, (DI)); \
	CMPQ mref, $2; \
	JLT  done; \
	ROWOUT32(Y4, Y5, Y6, Y7, X4, (DI)(BX*1)); \
	CMPQ mref, $3; \
	JLT  done; \
	ROWOUT32(Y8, Y9, Y10, Y11, X8, (DI)(BX*2))

// func dotTile32(dst, a, b *float32, m, n, k int)
//
// dotTile64 at 8 lanes to the register: a k step covers 8 elements
// and an output group is 16 bytes.
TEXT ·dotTile32(SB), NOSPLIT, $24-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R11
	MOVQ n+32(FP), AX
	MOVQ k+40(FP), DX
	MOVQ AX, BX
	SHLQ $2, BX

	MOVQ DX, CX
	SHLQ $2, CX
	MOVQ CX, stride-8(SP)
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
	MOVQ R12, tailmask-16(SP)

	ANDQ $~7, DX
	SHLQ $2, DX
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	NEGQ DX
	MOVQ DX, negfull-24(SP)

group:
	MOVQ stride-8(SP), DX
	GROUPROWS
	ZERO4(VXORPS, Y0, Y1, Y2, Y3)
	ZERO4(VXORPS, Y4, Y5, Y6, Y7)
	ZERO4(VXORPS, Y8, Y9, Y10, Y11)
	MOVQ  negfull-24(SP), CX
	TESTQ CX, CX
	JZ    tail
	CMPQ  m+24(FP), $2
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
	MOVQ    tailmask-16(SP), DX
	TESTQ   DX, DX
	JZ      out
	VMOVDQU (DX), Y15
	TAILROW(VMASKMOVPS, VFMADD231PS, R8, Y0, Y1, Y2, Y3)
	CMPQ    m+24(FP), $2
	JLT     out
	TAILROW(VMASKMOVPS, VFMADD231PS, R9, Y4, Y5, Y6, Y7)
	CMPQ    m+24(FP), $3
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
	OUTROWS32(m+24(FP), next)

next:
	ADDQ $16, DI
	MOVQ stride-8(SP), DX
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

// The 512-bit dot micro-kernels (AVX-512 F and VL). One call computes
// what dotTile64/dotTile32 compute, for 2 ≤ m ≤ 6 rows of a and
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
// k offset (negative, counting up to 0, as in dotTile64), DX row
// stride of a and b in bytes, R14, R15 and SI the group's b rows 0, 3
// and 6, advanced by the k loop (row 1 is (R14)(DX*1), row 2
// (R14)(DX*2), and so on), DI dst, R8-R13 a rows 0-5; Z0-Z23
// accumulators (pair p, b row c in Z(8p+c)), Z24-Z26 the pairs, Z27 the
// broadcast b step. The fold uses CX for the spill block, DX and R14 for
// dst rows, Y0-Y3 for one row's chains and Y12, Y13 and Y15 for
// ROWOUT64/ROWOUT32.

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
// into Y0-Y3; then ROWOUT folds them and stores them at dp.
#define FOLDROW(ROWOUT, o, dp) \
	VMOVUPD o(CX), Y0; \
	VMOVUPD (o+64)(CX), Y1; \
	VMOVUPD (o+128)(CX), Y2; \
	VMOVUPD (o+192)(CX), Y3; \
	ROWOUT(dp)

// One half of the group's outputs — b rows 4h to 4h+3, spill offset
// off = 256h, dst offset doff — for each of the m rows: row 1 is the
// high half of row 0's chains (+32), rows 2 and 4 the next pairs (+512,
// +1024); dst rows 3 and 5 are addressed from DX = DI+2·BX and R14 =
// DI+4·BX.
#define FOLDHALF(ROWOUT, off, doff, done) \
	FOLDROW(ROWOUT, off, doff(DI)); \
	FOLDROW(ROWOUT, (off+32), doff(DI)(BX*1)); \
	CMPQ rows-40(SP), $3; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+512), doff(DI)(BX*2)); \
	CMPQ rows-40(SP), $4; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+544), doff(DX)(BX*1)); \
	CMPQ rows-40(SP), $5; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+1024), doff(DI)(BX*4)); \
	CMPQ rows-40(SP), $6; \
	JLT  done; \
	FOLDROW(ROWOUT, (off+1056), doff(R14)(BX*1))

#define ROWOUT64Y(dp) ROWOUT64(Y0, Y1, Y2, Y3, dp)
#define ROWOUT32Y(dp) ROWOUT32(Y0, Y1, Y2, Y3, X0, dp)

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
// frame's lowest 1600), then four locals.
//
// func dot512Tile64(dst, a, b *float64, m, n, k int)
TEXT ·dot512Tile64(SB), $1640-48
	MOVQ a+8(FP), R8
	MOVQ k+40(FP), DX

	MOVQ DX, CX
	SHLQ $3, CX                  // row stride of a and b in bytes
	MOVQ CX, stride-16(SP)
	MOVQ m+24(FP), R15
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
	CMPQ  m+24(FP), $3
	JLT   loop1
	CMPQ  m+24(FP), $5
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
	MOVQ     first-32(SP), AX
	MOVQ     n+32(FP), BX
	SHLQ     $3, BX
	MOVQ     dst+0(FP), DI
	LEAQ     (DI)(AX*8), DI      // the group's outputs in dst row 0
	LEAQ     (DI)(BX*2), DX
	LEAQ     (DI)(BX*4), R14
	VXORPD   Y13, Y13, Y13
	VPCMPEQQ Y15, Y15, Y15       // store mask: every lane
	FOLDHALF(ROWOUT64Y, 0, 0, half0)
half0:
	FOLDHALF(ROWOUT64Y, 256, 32, half1)
half1:
	NEXTGROUP(n+32(FP))

done:
	VZEROUPPER
	RET

// func dot512Tile32(dst, a, b *float32, m, n, k int)
//
// dot512Tile64 at 8 lanes to the half: a k step covers 8 elements and
// a half group's outputs are 16 bytes.
TEXT ·dot512Tile32(SB), $1640-48
	MOVQ a+8(FP), R8
	MOVQ k+40(FP), DX

	MOVQ DX, CX
	SHLQ $2, CX
	MOVQ CX, stride-16(SP)
	MOVQ m+24(FP), R15
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
	CMPQ  m+24(FP), $3
	JLT   loop1
	CMPQ  m+24(FP), $5
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
	MOVQ     first-32(SP), AX
	MOVQ     n+32(FP), BX
	SHLQ     $2, BX
	MOVQ     dst+0(FP), DI
	LEAQ     (DI)(AX*4), DI
	LEAQ     (DI)(BX*2), DX
	LEAQ     (DI)(BX*4), R14
	VXORPS   X13, X13, X13
	VPCMPEQD X15, X15, X15
	FOLDHALF(ROWOUT32Y, 0, 0, half0)
half0:
	FOLDHALF(ROWOUT32Y, 256, 16, half1)
half1:
	NEXTGROUP(n+32(FP))

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

// The k steps of a last group of w ≤ 24 columns over only its first
// v = ⌈w/8⌉ column vectors, v = 1, 2 or 3 (ZPSTEPmVv for m rows): no
// multiply or add is spent on a vector whose lanes are all masked off,
// and each lane's terms are the four-vector loop's.
#define ZPSTEP1V1 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	ZBVECTAIL(0, K1); \
	ZPCOL1(Z0); \
	ZPNEXT
#define ZPSTEP2V1 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	ZBVECTAIL(0, K1); \
	ZPCOL2(Z0, Z4); \
	ZPNEXT
#define ZPSTEP3V1 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	VBROADCASTSD (R10)(R12*1), Z16; \
	ZBVECTAIL(0, K1); \
	ZPCOL3(Z0, Z4, Z8); \
	ZPNEXT
#define ZPSTEP1V2 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	ZBVECTAIL(0, K1); \
	ZPCOL1(Z0); \
	ZBVECTAIL(64, K2); \
	ZPCOL1(Z1); \
	ZPNEXT
#define ZPSTEP2V2 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	ZBVECTAIL(0, K1); \
	ZPCOL2(Z0, Z4); \
	ZBVECTAIL(64, K2); \
	ZPCOL2(Z1, Z5); \
	ZPNEXT
#define ZPSTEP3V2 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	VBROADCASTSD (R10)(R12*1), Z16; \
	ZBVECTAIL(0, K1); \
	ZPCOL3(Z0, Z4, Z8); \
	ZBVECTAIL(64, K2); \
	ZPCOL3(Z1, Z5, Z9); \
	ZPNEXT
#define ZPSTEP1V3 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	ZBVECTAIL(0, K1); \
	ZPCOL1(Z0); \
	ZBVECTAIL(64, K2); \
	ZPCOL1(Z1); \
	ZBVECTAIL(128, K3); \
	ZPCOL1(Z2); \
	ZPNEXT
#define ZPSTEP2V3 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	ZBVECTAIL(0, K1); \
	ZPCOL2(Z0, Z4); \
	ZBVECTAIL(64, K2); \
	ZPCOL2(Z1, Z5); \
	ZBVECTAIL(128, K3); \
	ZPCOL2(Z2, Z6); \
	ZPNEXT
#define ZPSTEP3V3 \
	VBROADCASTSD (R8)(R12*1), Z14; \
	VBROADCASTSD (R9)(R12*1), Z15; \
	VBROADCASTSD (R10)(R12*1), Z16; \
	ZBVECTAIL(0, K1); \
	ZPCOL3(Z0, Z4, Z8); \
	ZBVECTAIL(64, K2); \
	ZPCOL3(Z1, Z5, Z9); \
	ZBVECTAIL(128, K3); \
	ZPCOL3(Z2, Z6, Z10); \
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
	CMPQ AX, $8
	JLE  tailv1
	CMPQ AX, $16
	JLE  tailv2
	CMPQ AX, $24
	JLE  tailv3
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
	JMP  tailstore

tailv1:
	CMPQ m+24(FP), $2
	JLT  tail1v1
	JEQ  tail2v1

tail3v1:
	ZPSTEP3V1
	DECQ CX
	JNZ  tail3v1
	JMP  tailstore

tail2v1:
	ZPSTEP2V1
	DECQ CX
	JNZ  tail2v1
	JMP  tailstore

tail1v1:
	ZPSTEP1V1
	DECQ CX
	JNZ  tail1v1
	JMP  tailstore

tailv2:
	CMPQ m+24(FP), $2
	JLT  tail1v2
	JEQ  tail2v2

tail3v2:
	ZPSTEP3V2
	DECQ CX
	JNZ  tail3v2
	JMP  tailstore

tail2v2:
	ZPSTEP2V2
	DECQ CX
	JNZ  tail2v2
	JMP  tailstore

tail1v2:
	ZPSTEP1V2
	DECQ CX
	JNZ  tail1v2
	JMP  tailstore

tailv3:
	CMPQ m+24(FP), $2
	JLT  tail1v3
	JEQ  tail2v3

tail3v3:
	ZPSTEP3V3
	DECQ CX
	JNZ  tail3v3
	JMP  tailstore

tail2v3:
	ZPSTEP2V3
	DECQ CX
	JNZ  tail2v3
	JMP  tailstore

tail1v3:
	ZPSTEP1V3
	DECQ CX
	JNZ  tail1v3
	JMP  tailstore

tailstore:
	CMPB add+64(FP), $0
	JEQ  tailrows
	ZPROWS(ZPADDTAIL, tailrows, m+24(FP))

tailrows:
	ZPROWS(ZPSTORETAIL, done, m+24(FP))

done:
	VZEROUPPER
	RET

// The dense layer's micro-kernels: an outer product over In×Out weights
// (w stored k×n, so row k of w holds every output's weight for input k).
// One call computes, for the m ≤ 6 rows of a tile of a and one block of
// cols columns of w and dst,
//
//	dst[r][j] = max(((Σ_k a[r][k]·w[k][j]) + bias[j]) + res[r][j], floor)
//
// with a row stride k, w, dst and res row stride n, and floor 0 (relu)
// or -Inf. Each output is one accumulator lane from start to end:
// zeroed, then per ascending k one FMA of a[r][k], broadcast, against
// row k of the block — fma(a[r][k], w[k][j], s) from s = +0, the chain
// denseScalar runs in Go — so no lane is folded into another and there
// is no k tail: an output's bits do not depend on m, on the block, or on
// which kernel ran. The epilogue adds the bias, then the residual (for
// a nil operand it adds -0 from a block of the frame instead: x + -0 is
// x for every x, -0 included), and floors with VMAXPD, which returns its
// second source — the sum — for a NaN or a pair of zeros, so NaN and -0
// pass as the Go floor passes them. A block's columns past cols are
// loaded and stored under masks, so nothing past a row's end is
// touched, and PREFETCHT0 asks for w eight rows ahead.
//
// AVX-512 (outer512Tile64, outer512Tile32): blocks of 32 float64 or 64
// float32 columns, four zmm vectors under the opmasks K1-K4; Z0-Z23 the
// accumulators (row r, vector c in Z(4r+c)), Z24-Z27 row k of the block
// and after the loop the bias, Z28 and Z29 the broadcasts, then the
// floor and the residual. AVX2 (outerTile64, outerTile32): blocks of 8
// float64 or 16 float32, two ymm vectors under masks kept in the frame
// (Y15 holds the one in use); Y0-Y11 the accumulators (row r, vector c
// in Y(2r+c)), Y12-Y13 row k and after the loop scratch, Y14 the
// broadcast, then the floor.
//
// General registers: DI dst, R8 a's row 0 and R10 its row 3 (rows 1, 2,
// 4 and 5 one and two R9 past them), both advanced an element a k step,
// R9 a's row stride in bytes, R11 row k of the block, BX the row stride
// of w, dst and res in bytes, DX the prefetch distance, CX k steps left;
// after the loop SI the bias, R15 the residual row and R12 its stride (0
// for the frame's -0), R13 relu.

// The k loop's strides from BX = n and R9 = k (shift: log2 of the
// element size), a's row 3 and the prefetch distance.
#define STRIDES(shift) \
	SHLQ shift, BX; \
	SHLQ shift, R9; \
	LEAQ (R8)(R9*2), R10; \
	ADDQ R9, R10; \
	MOVQ BX, DX; \
	SHLQ $3, DX

// The next k step (size: the element size), while k steps remain.
#define KNEXT(size, loop) \
	ADDQ size, R8; \
	ADDQ size, R10; \
	ADDQ BX, R11; \
	DECQ CX; \
	JNZ  loop

// SI the bias and R15 the residual as given, or the frame's -0 at negz
// where nil (R12 the residual's row stride, 0 for the -0); AX the floor:
// neginf (-Inf), or 0 where R13 (relu) is set.
#define OPERANDS(negz, neginf) \
	LEAQ    negz, AX; \
	TESTQ   SI, SI; \
	CMOVQEQ AX, SI; \
	MOVQ    BX, R12; \
	XORQ    CX, CX; \
	TESTQ   R15, R15; \
	CMOVQEQ AX, R15; \
	CMOVQEQ CX, R12; \
	MOVQ    neginf, AX; \
	TESTQ   R13, R13; \
	CMOVQNE CX, AX

// Row k of an AVX-512 block under K1-K4 (LD: VMOVUPD.Z or VMOVUPS.Z),
// and the prefetch of row k+8.
#define ZWLOAD(LD) \
	LD         (R11), K1, Z24; \
	LD         64(R11), K2, Z25; \
	LD         128(R11), K3, Z26; \
	LD         192(R11), K4, Z27; \
	PREFETCHT0 (R11)(DX*1); \
	PREFETCHT0 128(R11)(DX*1)

// One a row's k step: its element at ap broadcast into z, four FMAs.
#define ZROW(BC, FMA, ap, z, c0, c1, c2, c3) \
	BC  ap, z; \
	FMA Z24, z, c0; \
	FMA Z25, z, c1; \
	FMA Z26, z, c2; \
	FMA Z27, z, c3

// A k step of one to six rows.
#define ZSTEPR1(LD, BC, FMA) \
	ZWLOAD(LD); \
	ZROW(BC, FMA, (R8), Z28, Z0, Z1, Z2, Z3)
#define ZSTEPR2(LD, BC, FMA) \
	ZSTEPR1(LD, BC, FMA); \
	ZROW(BC, FMA, (R8)(R9*1), Z29, Z4, Z5, Z6, Z7)
#define ZSTEPR3(LD, BC, FMA) \
	ZSTEPR2(LD, BC, FMA); \
	ZROW(BC, FMA, (R8)(R9*2), Z28, Z8, Z9, Z10, Z11)
#define ZSTEPR4(LD, BC, FMA) \
	ZSTEPR3(LD, BC, FMA); \
	ZROW(BC, FMA, (R10), Z29, Z12, Z13, Z14, Z15)
#define ZSTEPR5(LD, BC, FMA) \
	ZSTEPR4(LD, BC, FMA); \
	ZROW(BC, FMA, (R10)(R9*1), Z28, Z16, Z17, Z18, Z19)
#define ZSTEPR6(LD, BC, FMA) \
	ZSTEPR5(LD, BC, FMA); \
	ZROW(BC, FMA, (R10)(R9*2), Z29, Z20, Z21, Z22, Z23)

// One output vector: + bias b, + the residual (through Z29), the floor
// (Z28), the masked store.
#define ZOUTV(LD, ADD, MAX, ST, c, b, off, kv) \
	ADD b, c, c; \
	LD  off(R15), kv, Z29; \
	ADD Z29, c, c; \
	MAX c, Z28, c; \
	ST  c, kv, off(DI)

// One row's outputs, then the next row's dst and residual.
#define ZOUTROW(LD, ADD, MAX, ST, c0, c1, c2, c3) \
	ZOUTV(LD, ADD, MAX, ST, c0, Z24, 0, K1); \
	ZOUTV(LD, ADD, MAX, ST, c1, Z25, 64, K2); \
	ZOUTV(LD, ADD, MAX, ST, c2, Z26, 128, K3); \
	ZOUTV(LD, ADD, MAX, ST, c3, Z27, 192, K4); \
	ADDQ BX, DI; \
	ADDQ R12, R15

// The four vectors of -0 in Z24 to the frame's negz block.
#define ZNEGZ(ST) \
	ST Z24, negz-256(SP); \
	ST Z24, negz-192(SP); \
	ST Z24, negz-128(SP); \
	ST Z24, negz-64(SP)

// func outer512Tile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool)
TEXT ·outer512Tile64(SB), NOSPLIT, $256-73
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z24
	ZNEGZ(VMOVUPD)

	MOVQ  $64, CX                // K1-K4: the block's cols leading lanes
	SUBQ  cols+64(FP), CX
	MOVQ  $-1, AX
	SHRQ  CX, AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2
	SHRQ  $8, AX
	KMOVW AX, K3
	SHRQ  $8, AX
	KMOVW AX, K4

	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ w+16(FP), R11
	MOVQ n+48(FP), BX
	MOVQ k+56(FP), R9
	MOVQ R9, CX
	STRIDES($3)
	ZERO24
	MOVQ m+40(FP), AX
	CMPQ AX, $3
	JLT  loop12
	JEQ  loop3
	CMPQ AX, $5
	JLT  loop4
	JEQ  loop5

loop6:
	ZSTEPR6(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop6)
	JMP out

loop5:
	ZSTEPR5(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop5)
	JMP out

loop4:
	ZSTEPR4(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop4)
	JMP out

loop3:
	ZSTEPR3(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop3)
	JMP out

loop12:
	CMPQ AX, $2
	JLT  loop1

loop2:
	ZSTEPR2(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop2)
	JMP out

loop1:
	ZSTEPR1(VMOVUPD.Z, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop1)

out:
	MOVQ    bias+24(FP), SI
	MOVQ    res+32(FP), R15
	MOVBQZX relu+72(FP), R13
	OPERANDS(negz-256(SP), $0xFFF0000000000000)
	VPBROADCASTQ AX, Z28
	VMOVUPD.Z    (SI), K1, Z24
	VMOVUPD.Z    64(SI), K2, Z25
	VMOVUPD.Z    128(SI), K3, Z26
	VMOVUPD.Z    192(SI), K4, Z27
	MOVQ         m+40(FP), AX
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z0, Z1, Z2, Z3)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z4, Z5, Z6, Z7)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z8, Z9, Z10, Z11)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z12, Z13, Z14, Z15)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z16, Z17, Z18, Z19)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPD.Z, VADDPD, VMAXPD, VMOVUPD, Z20, Z21, Z22, Z23)

done:
	VZEROUPPER
	RET

// func outer512Tile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool)
//
// outer512Tile64 at 16 lanes to the vector: a block is 64 columns.
TEXT ·outer512Tile32(SB), NOSPLIT, $256-73
	MOVQ         $0x8000000080000000, AX
	VPBROADCASTQ AX, Z24
	ZNEGZ(VMOVUPS)

	MOVQ  $64, CX
	SUBQ  cols+64(FP), CX
	MOVQ  $-1, AX
	SHRQ  CX, AX
	KMOVW AX, K1
	SHRQ  $16, AX
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3
	SHRQ  $16, AX
	KMOVW AX, K4

	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ w+16(FP), R11
	MOVQ n+48(FP), BX
	MOVQ k+56(FP), R9
	MOVQ R9, CX
	STRIDES($2)
	ZERO24
	MOVQ m+40(FP), AX
	CMPQ AX, $3
	JLT  loop12
	JEQ  loop3
	CMPQ AX, $5
	JLT  loop4
	JEQ  loop5

loop6:
	ZSTEPR6(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop6)
	JMP out

loop5:
	ZSTEPR5(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop5)
	JMP out

loop4:
	ZSTEPR4(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop4)
	JMP out

loop3:
	ZSTEPR3(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop3)
	JMP out

loop12:
	CMPQ AX, $2
	JLT  loop1

loop2:
	ZSTEPR2(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop2)
	JMP out

loop1:
	ZSTEPR1(VMOVUPS.Z, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop1)

out:
	MOVQ    bias+24(FP), SI
	MOVQ    res+32(FP), R15
	MOVBQZX relu+72(FP), R13
	OPERANDS(negz-256(SP), $0xFF800000FF800000)
	VPBROADCASTQ AX, Z28
	VMOVUPS.Z    (SI), K1, Z24
	VMOVUPS.Z    64(SI), K2, Z25
	VMOVUPS.Z    128(SI), K3, Z26
	VMOVUPS.Z    192(SI), K4, Z27
	MOVQ         m+40(FP), AX
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z0, Z1, Z2, Z3)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z4, Z5, Z6, Z7)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z8, Z9, Z10, Z11)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z12, Z13, Z14, Z15)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z16, Z17, Z18, Z19)
	DECQ AX
	JZ   done
	ZOUTROW(VMOVUPS.Z, VADDPS, VMAXPS, VMOVUPS, Z20, Z21, Z22, Z23)

done:
	VZEROUPPER
	RET

// Row k of an AVX2 block under the frame's masks (MLD: VMASKMOVPD or
// VMASKMOVPS), and the prefetch of row k+8.
#define YWLOAD(MLD) \
	VMOVDQU    mask0-64(SP), Y15; \
	MLD        (R11), Y15, Y12; \
	VMOVDQU    mask1-32(SP), Y15; \
	MLD        32(R11), Y15, Y13; \
	PREFETCHT0 (R11)(DX*1)

// One a row's k step: its element at ap broadcast, two FMAs.
#define YROW(BC, FMA, ap, c0, c1) \
	BC  ap, Y14; \
	FMA Y12, Y14, c0; \
	FMA Y13, Y14, c1

// A k step of one to six rows.
#define YSTEPR1(MLD, BC, FMA) \
	YWLOAD(MLD); \
	YROW(BC, FMA, (R8), Y0, Y1)
#define YSTEPR2(MLD, BC, FMA) \
	YSTEPR1(MLD, BC, FMA); \
	YROW(BC, FMA, (R8)(R9*1), Y2, Y3)
#define YSTEPR3(MLD, BC, FMA) \
	YSTEPR2(MLD, BC, FMA); \
	YROW(BC, FMA, (R8)(R9*2), Y4, Y5)
#define YSTEPR4(MLD, BC, FMA) \
	YSTEPR3(MLD, BC, FMA); \
	YROW(BC, FMA, (R10), Y6, Y7)
#define YSTEPR5(MLD, BC, FMA) \
	YSTEPR4(MLD, BC, FMA); \
	YROW(BC, FMA, (R10)(R9*1), Y8, Y9)
#define YSTEPR6(MLD, BC, FMA) \
	YSTEPR5(MLD, BC, FMA); \
	YROW(BC, FMA, (R10)(R9*2), Y10, Y11)

// One output vector under the mask at mask: + bias, + the residual, the
// floor (Y14), the masked store.
#define YOUTV(MLD, ADD, MAX, c, off, mask) \
	VMOVDQU mask, Y15; \
	MLD     off(SI), Y15, Y12; \
	ADD     Y12, c, c; \
	MLD     off(R15), Y15, Y12; \
	ADD     Y12, c, c; \
	MAX     c, Y14, c; \
	MLD     c, Y15, off(DI)

// One row's outputs, then the next row's dst and residual.
#define YOUTROW(MLD, ADD, MAX, c0, c1) \
	YOUTV(MLD, ADD, MAX, c0, 0, mask0-64(SP)); \
	YOUTV(MLD, ADD, MAX, c1, 32, mask1-32(SP)); \
	ADDQ BX, DI; \
	ADDQ R12, R15

// The frame's -0 (from AX) and the block's two masks for AX = cols: the
// leading min(cols, lanes) lanes, then the next max(cols-lanes, 0), from
// the table at R12 (lanes ones, then lanes zeros; scale the element
// size).
#define YFRAME(lanes, scale) \
	VMOVQ        AX, X12; \
	VPBROADCASTQ X12, Y12; \
	VMOVDQU      Y12, negz-128(SP); \
	VMOVDQU      Y12, negz-96(SP); \
	MOVQ         BX, AX; \
	MOVQ         lanes, CX; \
	SUBQ         AX, CX; \
	XORQ         DX, DX; \
	CMPQ         CX, DX; \
	CMOVQLT      DX, CX; \
	VMOVDQU      (R12)(CX*scale), Y12; \
	VMOVDQU      Y12, mask0-64(SP); \
	MOVQ         lanes, CX; \
	SHLQ         $1, CX; \
	SUBQ         AX, CX; \
	MOVQ         lanes, DX; \
	CMPQ         CX, DX; \
	CMOVQGT      DX, CX; \
	VMOVDQU      (R12)(CX*scale), Y12; \
	VMOVDQU      Y12, mask1-32(SP)

// func outerTile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool)
TEXT ·outerTile64(SB), NOSPLIT, $128-73
	MOVQ $0x8000000000000000, AX
	MOVQ cols+64(FP), BX
	LEAQ masks64<>(SB), R12
	YFRAME($4, 8)

	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ w+16(FP), R11
	MOVQ n+48(FP), BX
	MOVQ k+56(FP), R9
	MOVQ R9, CX
	STRIDES($3)
	ZERO4(VXORPD, Y0, Y1, Y2, Y3)
	ZERO4(VXORPD, Y4, Y5, Y6, Y7)
	ZERO4(VXORPD, Y8, Y9, Y10, Y11)
	MOVQ m+40(FP), AX
	CMPQ AX, $3
	JLT  loop12
	JEQ  loop3
	CMPQ AX, $5
	JLT  loop4
	JEQ  loop5

loop6:
	YSTEPR6(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop6)
	JMP out

loop5:
	YSTEPR5(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop5)
	JMP out

loop4:
	YSTEPR4(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop4)
	JMP out

loop3:
	YSTEPR3(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop3)
	JMP out

loop12:
	CMPQ AX, $2
	JLT  loop1

loop2:
	YSTEPR2(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop2)
	JMP out

loop1:
	YSTEPR1(VMASKMOVPD, VBROADCASTSD, VFMADD231PD)
	KNEXT($8, loop1)

out:
	MOVQ    bias+24(FP), SI
	MOVQ    res+32(FP), R15
	MOVBQZX relu+72(FP), R13
	OPERANDS(negz-128(SP), $0xFFF0000000000000)
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         m+40(FP), AX
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y0, Y1)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y2, Y3)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y4, Y5)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y6, Y7)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y8, Y9)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPD, VADDPD, VMAXPD, Y10, Y11)

done:
	VZEROUPPER
	RET

// func outerTile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool)
//
// outerTile64 at 8 lanes to the vector: a block is 16 columns.
TEXT ·outerTile32(SB), NOSPLIT, $128-73
	MOVQ $0x8000000080000000, AX
	MOVQ cols+64(FP), BX
	LEAQ masks32<>(SB), R12
	YFRAME($8, 4)

	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ w+16(FP), R11
	MOVQ n+48(FP), BX
	MOVQ k+56(FP), R9
	MOVQ R9, CX
	STRIDES($2)
	ZERO4(VXORPS, Y0, Y1, Y2, Y3)
	ZERO4(VXORPS, Y4, Y5, Y6, Y7)
	ZERO4(VXORPS, Y8, Y9, Y10, Y11)
	MOVQ m+40(FP), AX
	CMPQ AX, $3
	JLT  loop12
	JEQ  loop3
	CMPQ AX, $5
	JLT  loop4
	JEQ  loop5

loop6:
	YSTEPR6(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop6)
	JMP out

loop5:
	YSTEPR5(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop5)
	JMP out

loop4:
	YSTEPR4(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop4)
	JMP out

loop3:
	YSTEPR3(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop3)
	JMP out

loop12:
	CMPQ AX, $2
	JLT  loop1

loop2:
	YSTEPR2(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop2)
	JMP out

loop1:
	YSTEPR1(VMASKMOVPS, VBROADCASTSS, VFMADD231PS)
	KNEXT($4, loop1)

out:
	MOVQ    bias+24(FP), SI
	MOVQ    res+32(FP), R15
	MOVBQZX relu+72(FP), R13
	OPERANDS(negz-128(SP), $0xFF800000FF800000)
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         m+40(FP), AX
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y0, Y1)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y2, Y3)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y4, Y5)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y6, Y7)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y8, Y9)
	DECQ AX
	JZ   done
	YOUTROW(VMASKMOVPS, VADDPS, VMAXPS, Y10, Y11)

done:
	VZEROUPPER
	RET

// The transpose kernel: dst = srcᵀ over the first rows × cols elements
// of src, both multiples of 4, in 4×4 blocks. A block is four row loads,
// two rounds of shuffles (pairs of rows unpacked, then 128-bit halves
// exchanged) and four stores into dst's rows c..c+3 at column r. The
// outer loop takes eight source columns at a time (four for a last
// strip), the inner one walks down every source row: each source line is
// read whole once and each of the strip's dst rows is written front to
// back, so a power-of-two row stride, which maps a column's lines into a
// couple of cache sets, never has more than a strip's lines in flight.
//
// Registers: SI src at column c of row 0, DI dst row c, AX src row r at
// column c, BX dst row c at column r, R14 dst row c+4 at column r, CX
// rows left, R8 columns left, R9 scratch, R10 and R12 one and three dst
// rows in bytes, R11 and R13 one and three src rows; Y0-Y7 one block.

// One 4×4 block from the src rows at off(AX) (stride R11) into the dst
// rows at dp (stride R10).
#define TBLOCK(off, dp) \
	VMOVUPD    off(AX), Y0; \
	VMOVUPD    off(AX)(R11*1), Y1; \
	VMOVUPD    off(AX)(R11*2), Y2; \
	VMOVUPD    off(AX)(R13*1), Y3; \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VMOVUPD    Y0, (dp); \
	VMOVUPD    Y1, (dp)(R10*1); \
	VMOVUPD    Y2, (dp)(R10*2); \
	VMOVUPD    Y3, (dp)(R12*1)

// Four source rows of an eight-column strip (at AX) into dst at BX and
// R14, after asking for the rows sixteen further down (R9 scratch) to be
// brought into L2: a strip's loads come a cache line per row from lines
// the prefetchers do not see coming.
#define TSTEP \
	LEAQ       (AX)(R11*8), R9; \
	LEAQ       (R9)(R11*8), R9; \
	PREFETCHT1 (R9); \
	PREFETCHT1 (R9)(R11*1); \
	PREFETCHT1 (R9)(R11*2); \
	PREFETCHT1 (R9)(R13*1); \
	TBLOCK(0, BX); \
	TBLOCK(32, R14); \
	LEAQ (AX)(R11*4), AX; \
	ADDQ $32, BX; \
	ADDQ $32, R14

// func transposeBlocks64(dst, src *float64, rows, cols, dstStride, srcStride int)
TEXT ·transposeBlocks64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ cols+24(FP), R8
	MOVQ dstStride+32(FP), R10
	SHLQ $3, R10
	MOVQ srcStride+40(FP), R11
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13

strip8:
	CMPQ R8, $8
	JLT  strip4
	MOVQ SI, AX
	MOVQ DI, BX
	LEAQ (DI)(R10*4), R14
	MOVQ rows+16(FP), CX

rows8:
	TSTEP
	SUBQ $4, CX
	JNZ  rows8
	ADDQ $64, SI
	LEAQ (DI)(R10*8), DI
	SUBQ $8, R8
	JMP  strip8

strip4:
	CMPQ R8, $4
	JLT  tdone
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ rows+16(FP), CX

rows4:
	TBLOCK(0, BX)
	LEAQ (AX)(R11*4), AX
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ  rows4

tdone:
	VZEROUPPER
	RET

// The clip norm's column walk, sumSquaresStrips64: sum plus the squares
// of the first 8·strips columns of src (rows × stride, row-major), added
// one at a time down column 0, then down column 1, and so on, each
// square (VMULSD) and each sum (VADDSD) rounded on its own. The columns
// go in strips of eight through two buffers of 8·rows elements: while
// the sums walk one strip's buffer front to back, TSTEP transposes the
// next strip into the other, four source rows per 32 sums, so the loads
// of the next strip are in flight under the sums' chain of dependent
// adds instead of after it. rows is a positive multiple of 4.
//
// Registers: SI src at the strip to transpose next, AX its row r, BX and
// R14 the buffer at rows r of columns 0-3 and 4-7, R10 and R12 one and
// three buffer columns in bytes (rows·8), R11 and R13 one and three src
// rows, R9 the prefetch address, DI the buffer the sums walk and R8
// their place in it, R15 the other buffer, CX rows left in a pass, DX
// strips left to transpose; X15 the sum, X8 a square.

#define SQ(off) \
	VMOVSD off(R8), X8; \
	VMULSD X8, X8, X8; \
	VADDSD X8, X15, X15
#define SQ8(off) \
	SQ(off); SQ(off+8); SQ(off+16); SQ(off+24); \
	SQ(off+32); SQ(off+40); SQ(off+48); SQ(off+56)

// The next 32 elements of the walked buffer.
#define SQ32 \
	SQ8(0); SQ8(64); SQ8(128); SQ8(192); \
	ADDQ $256, R8

// func sumSquaresStrips64(sum float64, src *float64, rows, strips, stride int, a, b *float64) float64
TEXT ·sumSquaresStrips64(SB), NOSPLIT, $0-64
	VMOVSD sum+0(FP), X15
	MOVQ   src+8(FP), SI
	MOVQ   rows+16(FP), R10
	SHLQ   $3, R10
	LEAQ   (R10)(R10*2), R12
	MOVQ   stride+32(FP), R11
	SHLQ   $3, R11
	LEAQ   (R11)(R11*2), R13
	MOVQ   a+40(FP), DI
	MOVQ   b+48(FP), R15
	MOVQ   strips+24(FP), DX

	MOVQ SI, AX
	MOVQ DI, BX
	LEAQ (BX)(R10*4), R14
	MOVQ rows+16(FP), CX

first:
	TSTEP
	SUBQ $4, CX
	JNZ  first
	ADDQ $64, SI
	DECQ DX

strip:
	TESTQ DX, DX
	JZ    last
	MOVQ  SI, AX
	MOVQ  R15, BX
	LEAQ  (BX)(R10*4), R14
	MOVQ  DI, R8
	MOVQ  rows+16(FP), CX

both:
	TSTEP
	SQ32
	SUBQ $4, CX
	JNZ  both
	XCHGQ DI, R15
	ADDQ  $64, SI
	DECQ  DX
	JMP   strip

last:
	MOVQ DI, R8
	MOVQ rows+16(FP), CX

sums:
	SQ32
	SUBQ $4, CX
	JNZ  sums
	VZEROUPPER
	VMOVSD X15, ret+56(FP)
	RET
