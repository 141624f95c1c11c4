//go:build amd64 && !noasm

#include "textflag.h"

// The exp and log lanes: math.Exp and math.Log of package math's amd64
// assembly (archExp, archLog), instruction for instruction, four lanes
// to a ymm register or eight to a zmm one.
//
// Exp is archExp's FMA branch, the one Go takes on every CPU with AVX
// and FMA (so wherever these kernels run): t = x·log2e, k = t rounded
// to the nearest integer by VCVTPD2DQ, r = x − k·ln2u − k·ln2l by two
// VFNMADD231PD, r·0.0625, the Horner FMAs from c8 down to 1, r·p, four
// squarings r = (r+2)·r, the last fused with its + 1, and the product
// with 2^k built in the exponent bits. archExp branches away from that
// chain when k + 1023 leaves (0, 2047) — a NaN or ±Inf input (k is then
// the integer indefinite, −2^31), an input past its overflow threshold
// 7.09782712893384e+02 (k ≥ 1024 there), a result that overflows or
// goes denormal — and a lane whose k leaves [−1022, 1023] is marked
// bad instead.
//
// Log is archLog's unfused SSE sequence: the frexp by bit masks, f1
// doubled (and k less one) where f1 ≤ √2/2 (archLog's CMPSD, predicate
// not-less-than with √2/2 first), f = f1 − 1, s = f/(2+f), the two
// polynomials in s⁴ and the recombination, each operation rounded
// alone in archLog's order. k, an integer of at most 11 bits, is made
// exactly as a double by subtracting 2^52+1022 from 2^52 with the
// exponent field in its low bits. A lane is bad unless lo ≤ x < +Inf,
// and lo is at least the smallest normal: zero, a negative, a
// subnormal, NaN and ±Inf take archLog's other branches (or, for a
// subnormal, a frexp that reads no mantissa shift) and go to the
// caller.
//
// Each call does n ≤ 64 elements. A bad lane keeps its input (so an
// in-place caller still has it) and sets its bit in the returned mask;
// the Go caller recomputes those lanes with the scalar function. A tail
// of n mod lanes goes through masked loads and stores: the lanes past n
// are neither read nor written, and their bits are cleared.

#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

#define HSqrt2 7.07106781186547524401e-01 // sqrt(2)/2
#define Ln2Hi  6.93147180369123816490e-01 // 0x3fe62e42fee00000
#define Ln2Lo  1.90821492927058770002e-10 // 0x3dea39ef35793c76
#define L1     6.666666666666735130e-01   // 0x3FE5555555555593
#define L2     3.999999999940941908e-01   // 0x3FD999999997FA04
#define L3     2.857142874366239149e-01   // 0x3FD2492494229359
#define L4     2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
#define L5     1.818357216161805012e-01   // 0x3FC7466496CB03DE
#define L6     1.531383769920937332e-01   // 0x3FC39A09D078C69F
#define L7     1.479819860511658591e-01   // 0x3FC2F112DF3E5244

DATA lanec<>+0(SB)/8, $LOG2E
DATA lanec<>+8(SB)/8, $LN2U
DATA lanec<>+16(SB)/8, $LN2L
DATA lanec<>+24(SB)/8, $0.0625
DATA lanec<>+32(SB)/8, $2.4801587301587301587e-5 // archExp's exprodata, c8 down to c2
DATA lanec<>+40(SB)/8, $1.9841269841269841270e-4
DATA lanec<>+48(SB)/8, $1.3888888888888888889e-3
DATA lanec<>+56(SB)/8, $8.3333333333333333333e-3
DATA lanec<>+64(SB)/8, $4.1666666666666666667e-2
DATA lanec<>+72(SB)/8, $1.6666666666666666667e-1
DATA lanec<>+80(SB)/8, $0.5
DATA lanec<>+88(SB)/8, $1.0
DATA lanec<>+96(SB)/8, $2.0
DATA lanec<>+104(SB)/8, $-1022.0
DATA lanec<>+112(SB)/8, $1023.0
DATA lanec<>+120(SB)/8, $4503599627371519.0 // 2^52 + 1023
DATA lanec<>+128(SB)/8, $0x000FFFFFFFFFFFFF // mantissa bits
DATA lanec<>+136(SB)/8, $4503599627370496.0 // 2^52
DATA lanec<>+144(SB)/8, $4503599627371518.0 // 2^52 + 1022
DATA lanec<>+152(SB)/8, $HSqrt2
DATA lanec<>+160(SB)/8, $L1
DATA lanec<>+168(SB)/8, $L2
DATA lanec<>+176(SB)/8, $L3
DATA lanec<>+184(SB)/8, $L4
DATA lanec<>+192(SB)/8, $L5
DATA lanec<>+200(SB)/8, $L6
DATA lanec<>+208(SB)/8, $L7
DATA lanec<>+216(SB)/8, $Ln2Hi
DATA lanec<>+224(SB)/8, $Ln2Lo
DATA lanec<>+232(SB)/8, $0x7FF0000000000000 // +Inf
GLOBL lanec<>(SB), RODATA|NOPTR, $240

// 4 ones then 4 zeros: a load at lane offset 4-r is the mask of r
// leading lanes.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// EXP4: Y0 = exp(Y0) in the good lanes, Y0 kept in the bad ones, Y3 the
// bad lanes. Constants: Y6 0.5, Y7 2^52+1023, Y8 1023, Y9 −1022, Y10 1,
// Y11 2, Y12 0.0625, Y13 ln2l, Y14 ln2u, Y15 log2e; Y1-Y5 scratch.
#define EXP4 \
	VMULPD       Y15, Y0, Y1; \
	VCVTPD2DQY   Y1, X1; \
	VCVTDQ2PD    X1, Y1; \
	VMOVAPD      Y0, Y2; \
	VFNMADD231PD Y14, Y1, Y2; \
	VFNMADD231PD Y13, Y1, Y2; \
	VMULPD       Y12, Y2, Y2; \
	VBROADCASTSD lanec<>+32(SB), Y3; \
	VBROADCASTSD lanec<>+40(SB), Y5; \
	VFMADD213PD  Y5, Y2, Y3; \
	VBROADCASTSD lanec<>+48(SB), Y5; \
	VFMADD213PD  Y5, Y2, Y3; \
	VBROADCASTSD lanec<>+56(SB), Y5; \
	VFMADD213PD  Y5, Y2, Y3; \
	VBROADCASTSD lanec<>+64(SB), Y5; \
	VFMADD213PD  Y5, Y2, Y3; \
	VBROADCASTSD lanec<>+72(SB), Y5; \
	VFMADD213PD  Y5, Y2, Y3; \
	VFMADD213PD  Y6, Y2, Y3; \
	VFMADD213PD  Y10, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       Y11, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       Y11, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       Y11, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       Y11, Y2, Y3; \
	VFMADD213PD  Y10, Y3, Y2; \
	VADDPD       Y7, Y1, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VCMPPD       $0x01, Y9, Y1, Y3; \
	VCMPPD       $0x0E, Y8, Y1, Y4; \
	VORPD        Y4, Y3, Y3; \
	VBLENDVPD    Y3, Y0, Y2, Y0

// func expLanes(d *float64, n int) (bad uint64)
TEXT ·expLanes(SB), NOSPLIT, $0-24
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), DX
	VBROADCASTSD lanec<>+80(SB), Y6
	VBROADCASTSD lanec<>+120(SB), Y7
	VBROADCASTSD lanec<>+112(SB), Y8
	VBROADCASTSD lanec<>+104(SB), Y9
	VBROADCASTSD lanec<>+88(SB), Y10
	VBROADCASTSD lanec<>+96(SB), Y11
	VBROADCASTSD lanec<>+24(SB), Y12
	VBROADCASTSD lanec<>+16(SB), Y13
	VBROADCASTSD lanec<>+8(SB), Y14
	VBROADCASTSD lanec<>+0(SB), Y15
	XORQ         CX, CX                // lane index
	XORQ         R8, R8                // bad lanes
	MOVQ         DX, R9
	ANDQ         $~3, R9
	JZ           exptail

exploop:
	VMOVUPD   (DI)(CX*8), Y0
	EXP4
	VMOVUPD   Y0, (DI)(CX*8)
	VMOVMSKPD Y3, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $4, CX
	CMPQ      CX, R9
	JLT       exploop

exptail:
	CMPQ       CX, DX
	JGE        expdone
	MOVQ       DX, BX
	SUBQ       CX, BX
	SHLQ       $3, BX
	LEAQ       lanemask<>+32(SB), SI
	SUBQ       BX, SI              // the n-i leading lanes
	VMOVUPD    (SI), Y4
	VMASKMOVPD (DI)(CX*8), Y4, Y0
	EXP4
	VMOVUPD    (SI), Y4
	VMASKMOVPD Y0, Y4, (DI)(CX*8)
	VANDPD     Y4, Y3, Y3
	VMOVMSKPD  Y3, AX
	SHLQ       CX, AX
	ORQ        AX, R8

expdone:
	VZEROUPPER
	MOVQ R8, bad+16(FP)
	RET

// LOG4: Y0 = log(Y0) in the good lanes, Y0 kept in the bad ones, Y3 the
// bad lanes. Constants: Y9 √2/2, Y10 2, Y11 1, Y12 2^52+1022, Y13 2^52,
// Y14 lo, Y15 the mantissa bits; Y1-Y8 scratch.
#define LOG4 \
	VBROADCASTSD lanec<>+232(SB), Y4; \
	VCMPPD       $0x15, Y4, Y0, Y3; \
	VCMPPD       $0x19, Y14, Y0, Y4; \
	VORPD        Y4, Y3, Y3; \
	VANDPD       Y15, Y0, Y1; \
	VBROADCASTSD lanec<>+80(SB), Y4; \
	VORPD        Y4, Y1, Y1; \
	VPSRLQ       $52, Y0, Y2; \
	VPOR         Y13, Y2, Y2; \
	VSUBPD       Y12, Y2, Y2; \
	VCMPPD       $0x02, Y9, Y1, Y4; \
	VANDPD       Y11, Y4, Y4; \
	VSUBPD       Y4, Y2, Y2; \
	VADDPD       Y11, Y4, Y4; \
	VMULPD       Y4, Y1, Y1; \
	VSUBPD       Y11, Y1, Y1; \
	VADDPD       Y10, Y1, Y4; \
	VDIVPD       Y4, Y1, Y5; \
	VMULPD       Y5, Y5, Y6; \
	VMULPD       Y6, Y6, Y7; \
	VBROADCASTSD lanec<>+208(SB), Y8; \
	VMULPD       Y7, Y8, Y8; \
	VBROADCASTSD lanec<>+192(SB), Y4; \
	VADDPD       Y4, Y8, Y8; \
	VMULPD       Y7, Y8, Y8; \
	VBROADCASTSD lanec<>+176(SB), Y4; \
	VADDPD       Y4, Y8, Y8; \
	VMULPD       Y7, Y8, Y8; \
	VBROADCASTSD lanec<>+160(SB), Y4; \
	VADDPD       Y4, Y8, Y8; \
	VMULPD       Y8, Y6, Y6; \
	VBROADCASTSD lanec<>+200(SB), Y8; \
	VMULPD       Y7, Y8, Y8; \
	VBROADCASTSD lanec<>+184(SB), Y4; \
	VADDPD       Y4, Y8, Y8; \
	VMULPD       Y7, Y8, Y8; \
	VBROADCASTSD lanec<>+168(SB), Y4; \
	VADDPD       Y4, Y8, Y8; \
	VMULPD       Y8, Y7, Y7; \
	VADDPD       Y7, Y6, Y6; \
	VBROADCASTSD lanec<>+80(SB), Y4; \
	VMULPD       Y1, Y4, Y7; \
	VMULPD       Y1, Y7, Y7; \
	VADDPD       Y7, Y6, Y6; \
	VMULPD       Y6, Y5, Y5; \
	VBROADCASTSD lanec<>+224(SB), Y4; \
	VMULPD       Y4, Y2, Y6; \
	VADDPD       Y6, Y5, Y5; \
	VSUBPD       Y5, Y7, Y7; \
	VSUBPD       Y1, Y7, Y7; \
	VBROADCASTSD lanec<>+216(SB), Y4; \
	VMULPD       Y4, Y2, Y2; \
	VSUBPD       Y7, Y2, Y2; \
	VBLENDVPD    Y3, Y0, Y2, Y0

// func logLanes(dst, src *float64, n int, lo float64) (bad uint64)
TEXT ·logLanes(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD lanec<>+152(SB), Y9
	VBROADCASTSD lanec<>+96(SB), Y10
	VBROADCASTSD lanec<>+88(SB), Y11
	VBROADCASTSD lanec<>+144(SB), Y12
	VBROADCASTSD lanec<>+136(SB), Y13
	VBROADCASTSD lo+24(FP), Y14
	VBROADCASTSD lanec<>+128(SB), Y15
	XORQ         CX, CX
	XORQ         R8, R8
	MOVQ         DX, R9
	ANDQ         $~3, R9
	JZ           logtail

logloop:
	VMOVUPD   (SI)(CX*8), Y0
	LOG4
	VMOVUPD   Y0, (DI)(CX*8)
	VMOVMSKPD Y3, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $4, CX
	CMPQ      CX, R9
	JLT       logloop

logtail:
	CMPQ       CX, DX
	JGE        logdone
	MOVQ       DX, BX
	SUBQ       CX, BX
	SHLQ       $3, BX
	LEAQ       lanemask<>+32(SB), R10
	SUBQ       BX, R10
	VMOVUPD    (R10), Y4
	VMASKMOVPD (SI)(CX*8), Y4, Y0
	LOG4
	VMOVUPD    (R10), Y4
	VMASKMOVPD Y0, Y4, (DI)(CX*8)
	VANDPD     Y4, Y3, Y3
	VMOVMSKPD  Y3, AX
	SHLQ       CX, AX
	ORQ        AX, R8

logdone:
	VZEROUPPER
	MOVQ R8, bad+32(FP)
	RET

// The 512-bit twins: the same operations on eight lanes, the constants
// in Z14-Z31, the bad lanes in K2, the loaded lanes in K1 (every lane
// but in the tail), K3 scratch.

// EXP8: Z2 = exp(Z0) in the good lanes, Z0 in the bad ones. Constants:
// Z16 2^52+1023, Z17 1023, Z18 −1022, Z19 2, Z20 1, Z21 0.5, Z22-Z27
// c2 up to c8, Z28 0.0625, Z29 ln2l, Z30 ln2u, Z31 log2e.
#define EXP8 \
	VMULPD       Z31, Z0, Z1; \
	VCVTPD2DQ    Z1, Y1; \
	VCVTDQ2PD    Y1, Z1; \
	VMOVAPD      Z0, Z2; \
	VFNMADD231PD Z30, Z1, Z2; \
	VFNMADD231PD Z29, Z1, Z2; \
	VMULPD       Z28, Z2, Z2; \
	VMOVAPD      Z27, Z3; \
	VFMADD213PD  Z26, Z2, Z3; \
	VFMADD213PD  Z25, Z2, Z3; \
	VFMADD213PD  Z24, Z2, Z3; \
	VFMADD213PD  Z23, Z2, Z3; \
	VFMADD213PD  Z22, Z2, Z3; \
	VFMADD213PD  Z21, Z2, Z3; \
	VFMADD213PD  Z20, Z2, Z3; \
	VMULPD       Z3, Z2, Z2; \
	VADDPD       Z19, Z2, Z3; \
	VMULPD       Z3, Z2, Z2; \
	VADDPD       Z19, Z2, Z3; \
	VMULPD       Z3, Z2, Z2; \
	VADDPD       Z19, Z2, Z3; \
	VMULPD       Z3, Z2, Z2; \
	VADDPD       Z19, Z2, Z3; \
	VFMADD213PD  Z20, Z3, Z2; \
	VADDPD       Z16, Z1, Z3; \
	VPSLLQ       $52, Z3, Z3; \
	VMULPD       Z3, Z2, Z2; \
	VCMPPD       $0x01, Z18, Z1, K2; \
	VCMPPD       $0x0E, Z17, Z1, K3; \
	KORW         K3, K2, K2; \
	VMOVAPD      Z0, K2, Z2

#define EXP8STEP \
	VMOVUPD.Z (DI)(CX*8), K1, Z0; \
	EXP8; \
	VMOVUPD   Z2, K1, (DI)(CX*8); \
	KANDW     K1, K2, K2; \
	KMOVW     K2, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R8

// func exp512Lanes(d *float64, n int) (bad uint64)
TEXT ·exp512Lanes(SB), NOSPLIT, $0-24
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), DX
	VBROADCASTSD lanec<>+120(SB), Z16
	VBROADCASTSD lanec<>+112(SB), Z17
	VBROADCASTSD lanec<>+104(SB), Z18
	VBROADCASTSD lanec<>+96(SB), Z19
	VBROADCASTSD lanec<>+88(SB), Z20
	VBROADCASTSD lanec<>+80(SB), Z21
	VBROADCASTSD lanec<>+72(SB), Z22
	VBROADCASTSD lanec<>+64(SB), Z23
	VBROADCASTSD lanec<>+56(SB), Z24
	VBROADCASTSD lanec<>+48(SB), Z25
	VBROADCASTSD lanec<>+40(SB), Z26
	VBROADCASTSD lanec<>+32(SB), Z27
	VBROADCASTSD lanec<>+24(SB), Z28
	VBROADCASTSD lanec<>+16(SB), Z29
	VBROADCASTSD lanec<>+8(SB), Z30
	VBROADCASTSD lanec<>+0(SB), Z31
	XORQ         CX, CX
	XORQ         R8, R8
	KXNORW       K1, K1, K1
	MOVQ         DX, R9
	ANDQ         $~7, R9
	JZ           exp512tail

exp512loop:
	EXP8STEP
	ADDQ $8, CX
	CMPQ CX, R9
	JLT  exp512loop

exp512tail:
	CMPQ  CX, DX
	JGE   exp512done
	MOVQ  CX, R10
	MOVQ  DX, CX
	SUBQ  R10, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1                 // the n-i leading lanes
	MOVQ  R10, CX
	EXP8STEP

exp512done:
	VZEROUPPER
	MOVQ R8, bad+16(FP)
	RET

// LOG8: Z2 = log(Z0) in the good lanes, Z0 in the bad ones. Constants:
// Z14 +Inf, Z15 lo, Z16 Ln2Hi, Z17 Ln2Lo, Z18-Z24 L7 down to L1,
// Z25 √2/2, Z26 2, Z27 1, Z28 2^52+1022, Z29 2^52, Z30 0.5, Z31 the
// mantissa bits.
#define LOG8 \
	VCMPPD    $0x15, Z14, Z0, K2; \
	VCMPPD    $0x19, Z15, Z0, K3; \
	KORW      K3, K2, K2; \
	VPANDQ    Z31, Z0, Z1; \
	VPORQ     Z30, Z1, Z1; \
	VPSRLQ    $52, Z0, Z2; \
	VPORQ     Z29, Z2, Z2; \
	VSUBPD    Z28, Z2, Z2; \
	VCMPPD    $0x02, Z25, Z1, K3; \
	VMOVAPD.Z Z27, K3, Z4; \
	VSUBPD    Z4, Z2, Z2; \
	VADDPD    Z27, Z4, Z4; \
	VMULPD    Z4, Z1, Z1; \
	VSUBPD    Z27, Z1, Z1; \
	VADDPD    Z26, Z1, Z4; \
	VDIVPD    Z4, Z1, Z5; \
	VMULPD    Z5, Z5, Z6; \
	VMULPD    Z6, Z6, Z7; \
	VMULPD    Z7, Z18, Z8; \
	VADDPD    Z20, Z8, Z8; \
	VMULPD    Z7, Z8, Z8; \
	VADDPD    Z22, Z8, Z8; \
	VMULPD    Z7, Z8, Z8; \
	VADDPD    Z24, Z8, Z8; \
	VMULPD    Z8, Z6, Z6; \
	VMULPD    Z7, Z19, Z8; \
	VADDPD    Z21, Z8, Z8; \
	VMULPD    Z7, Z8, Z8; \
	VADDPD    Z23, Z8, Z8; \
	VMULPD    Z8, Z7, Z7; \
	VADDPD    Z7, Z6, Z6; \
	VMULPD    Z1, Z30, Z7; \
	VMULPD    Z1, Z7, Z7; \
	VADDPD    Z7, Z6, Z6; \
	VMULPD    Z6, Z5, Z5; \
	VMULPD    Z17, Z2, Z6; \
	VADDPD    Z6, Z5, Z5; \
	VSUBPD    Z5, Z7, Z7; \
	VSUBPD    Z1, Z7, Z7; \
	VMULPD    Z16, Z2, Z2; \
	VSUBPD    Z7, Z2, Z2; \
	VMOVAPD   Z0, K2, Z2

#define LOG8STEP \
	VMOVUPD.Z (SI)(CX*8), K1, Z0; \
	LOG8; \
	VMOVUPD   Z2, K1, (DI)(CX*8); \
	KANDW     K1, K2, K2; \
	KMOVW     K2, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R8

// func log512Lanes(dst, src *float64, n int, lo float64) (bad uint64)
TEXT ·log512Lanes(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD lanec<>+232(SB), Z14
	VBROADCASTSD lo+24(FP), Z15
	VBROADCASTSD lanec<>+216(SB), Z16
	VBROADCASTSD lanec<>+224(SB), Z17
	VBROADCASTSD lanec<>+208(SB), Z18
	VBROADCASTSD lanec<>+200(SB), Z19
	VBROADCASTSD lanec<>+192(SB), Z20
	VBROADCASTSD lanec<>+184(SB), Z21
	VBROADCASTSD lanec<>+176(SB), Z22
	VBROADCASTSD lanec<>+168(SB), Z23
	VBROADCASTSD lanec<>+160(SB), Z24
	VBROADCASTSD lanec<>+152(SB), Z25
	VBROADCASTSD lanec<>+96(SB), Z26
	VBROADCASTSD lanec<>+88(SB), Z27
	VBROADCASTSD lanec<>+144(SB), Z28
	VBROADCASTSD lanec<>+136(SB), Z29
	VBROADCASTSD lanec<>+80(SB), Z30
	VBROADCASTSD lanec<>+128(SB), Z31
	XORQ         CX, CX
	XORQ         R8, R8
	KXNORW       K1, K1, K1
	MOVQ         DX, R9
	ANDQ         $~7, R9
	JZ           log512tail

log512loop:
	LOG8STEP
	ADDQ $8, CX
	CMPQ CX, R9
	JLT  log512loop

log512tail:
	CMPQ  CX, DX
	JGE   log512done
	MOVQ  CX, R10
	MOVQ  DX, CX
	SUBQ  R10, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	MOVQ  R10, CX
	LOG8STEP

log512done:
	VZEROUPPER
	MOVQ R8, bad+32(FP)
	RET
