#include "textflag.h"
#include "go_asm.h"

// One burst group per YMM register, lane i in dword i. The Go loops in
// kernel.go are the reference: each lane computes what its table row
// computes (DESIGN.md §2, "the lanes").

// func encodeGroupsAVX2(buf *byte, pos int, src *float32, groups int, t *laneTable) int
//
// The eight CBs: a lane's tag is the number of thresholds its biased
// exponent x passes (126−E, 126−s8, 126), and a Tag8 or Tag16 lane is its
// significand shifted right by shift[tag] − x with its sign ORed in at
// signAt[tag]. The tag vector is the compare masks' sign bits, low tag
// bits (m1^m2^m3) and high ones (m2) spread to alternate bits. The
// alignment unit: each 128-bit half's four lanes are packed by the
// VPSHUFB mask its tag byte selects and stored whole, 16 bytes; half 1
// lands on half 0's unused tail. Every store of a group lies inside its
// worst case, 34 bytes from its first.
TEXT ·encodeGroupsAVX2(SB), NOSPLIT, $0-48
	MOVQ         buf+0(FP), DI
	MOVQ         pos+8(FP), R8
	MOVQ         src+16(FP), SI
	MOVQ         groups+24(FP), CX
	MOVQ         t+32(FP), DX
	VPBROADCASTD laneTable_thresh(DX), Y15
	VPBROADCASTD laneTable_thresh+4(DX), Y14
	VPBROADCASTD laneTable_thresh+8(DX), Y13
	VMOVDQU      laneTable_shift(DX), Y12
	VMOVDQU      laneTable_signAt(DX), Y11
	MOVL         $0x7FFFFF, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x800000, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	MOVL         $0xFF, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	LEAQ         ·tagSpread(SB), R10
	LEAQ         ·packShuf(SB), R11
	LEAQ         ·laneBytes(SB), R12

encloop:
	VMOVDQU   (SI), Y0
	VPSRLD    $23, Y0, Y1
	VPAND     Y8, Y1, Y1   // x
	VPCMPGTD  Y15, Y1, Y2  // m1: not TagZero
	VPCMPGTD  Y14, Y1, Y3  // m2: Tag16 or TagNone
	VPCMPGTD  Y13, Y1, Y4  // m3: TagNone
	VPADDD    Y2, Y3, Y5
	VPADDD    Y4, Y5, Y5
	VPXOR     Y6, Y6, Y6
	VPSUBD    Y5, Y6, Y5   // tag
	VPERMD    Y12, Y5, Y6
	VPSUBD    Y1, Y6, Y6   // shift[tag] − x
	VPAND     Y10, Y0, Y7
	VPOR      Y9, Y7, Y7   // the significand, leading one at bit 23
	VPSRLVD   Y6, Y7, Y7
	VPERMD    Y11, Y5, Y6
	VPSRLD    $31, Y0, Y1
	VPSLLVD   Y6, Y1, Y1   // the sign at signAt[tag]
	VPOR      Y1, Y7, Y7
	VPAND     Y4, Y0, Y0   // verbatim lanes
	VPOR      Y0, Y7, Y7   // the lane values
	VMOVMSKPS Y2, AX
	VMOVMSKPS Y3, BX
	VMOVMSKPS Y4, R9
	XORL      BX, AX
	XORL      R9, AX       // low tag bits
	MOVWLZX   (R10)(AX*2), AX
	MOVWLZX   (R10)(BX*2), BX
	SHLL      $1, BX
	ORL       BX, AX       // the tag vector
	MOVW      AX, (DI)(R8*1)
	MOVBLZX   AL, BX       // lanes 0–3's tags
	SHRL      $8, AX       // lanes 4–7's
	MOVQ      BX, R9
	SHLQ      $4, R9
	VMOVDQU   (R11)(R9*1), X1
	MOVQ      AX, R9
	SHLQ      $4, R9
	VINSERTI128 $1, (R11)(R9*1), Y1, Y1
	VPSHUFB   Y1, Y7, Y7
	MOVBLZX   (R12)(BX*1), BX // half 0's bytes
	MOVBLZX   (R12)(AX*1), AX // half 1's
	VMOVDQU   X7, 2(DI)(R8*1)
	ADDQ      BX, R8
	VEXTRACTI128 $1, Y7, 2(DI)(R8*1)
	LEAQ      2(R8)(AX*1), R8
	ADDQ      $32, SI
	DECQ      CX
	JNZ       encloop
	VZEROUPPER
	MOVQ      R8, ret+40(FP)
	RET

// tagShifts moves lane i's tag to the low bits of dword i.
DATA tagShifts<>+0(SB)/4, $0
DATA tagShifts<>+4(SB)/4, $2
DATA tagShifts<>+8(SB)/4, $4
DATA tagShifts<>+12(SB)/4, $6
DATA tagShifts<>+16(SB)/4, $8
DATA tagShifts<>+20(SB)/4, $10
DATA tagShifts<>+24(SB)/4, $12
DATA tagShifts<>+28(SB)/4, $14
GLOBL tagShifts<>(SB), RODATA|NOPTR, $32

// func decodeGroupsAVX2(dst *float32, groups int, data *byte, p, lim, last int, t *laneTable) (n, end int)
//
// The tag decoder sizes a group from its tag vector by two laneBytes
// lookups and checks it against lim, as decodeGroups does; the VPSHUFB
// masks the two tag bytes select expand the halves, loaded 16 bytes each
// from the group's data and from half 1's first byte, to eight
// zero-extended lanes x. The eight DBs: float32(x & frac)·scale, exact
// because the fraction is below 2^15 and scale a power of two, ORed with
// the sign carried to bit 31 and a verbatim lane's bits. No load reaches
// past p+34.
TEXT ·decodeGroupsAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         groups+8(FP), CX
	MOVQ         data+16(FP), SI
	MOVQ         p+24(FP), R8
	MOVQ         lim+32(FP), R13
	MOVQ         last+40(FP), R14
	MOVQ         t+48(FP), DX
	VMOVDQU      laneTable_frac(DX), Y15
	VMOVDQU      laneTable_scale(DX), Y14
	VMOVDQU      laneTable_signTo(DX), Y13
	VMOVDQU      laneTable_pass(DX), Y12
	VMOVDQU      tagShifts<>(SB), Y11
	MOVL         $3, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x80000000, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	LEAQ         ·unpackShuf(SB), R11
	LEAQ         ·laneBytes(SB), R12
	SHLQ         $5, CX
	ADDQ         DI, CX        // the end of dst's whole groups

decloop:
	CMPQ      DI, CX
	JAE       decdone
	CMPQ      R8, R14
	JGT       decdone
	MOVWLZX   (SI)(R8*1), AX  // the tag vector
	MOVBLZX   AL, BX          // lanes 0–3's tags
	MOVL      AX, DX
	SHRL      $8, DX          // lanes 4–7's
	MOVBLZX   (R12)(BX*1), R9 // half 0's bytes
	MOVBLZX   (R12)(DX*1), R10
	ADDQ      R8, R10
	LEAQ      2(R10)(R9*1), R10 // the group's end
	CMPQ      R10, R13
	JGT       decdone
	LEAQ      2(R8)(R9*1), R9 // half 1's first byte
	VMOVDQU   2(SI)(R8*1), X0
	VINSERTI128 $1, (SI)(R9*1), Y0, Y0
	SHLQ      $4, BX
	SHLQ      $4, DX
	VMOVDQU   (R11)(BX*1), X1
	VINSERTI128 $1, (R11)(DX*1), Y1, Y1
	VPSHUFB   Y1, Y0, Y0      // x
	VMOVD     AX, X2
	VPBROADCASTD X2, Y2
	VPSRLVD   Y11, Y2, Y2
	VPAND     Y10, Y2, Y2     // tag
	VPERMD    Y15, Y2, Y3
	VPAND     Y0, Y3, Y3
	VCVTDQ2PS Y3, Y3
	VPERMD    Y14, Y2, Y4
	VMULPS    Y4, Y3, Y3      // x & frac, placed
	VPERMD    Y13, Y2, Y4
	VPSLLVD   Y4, Y0, Y4
	VPAND     Y9, Y4, Y4
	VPOR      Y4, Y3, Y3      // the sign
	VPERMD    Y12, Y2, Y4
	VPAND     Y0, Y4, Y4
	VPOR      Y4, Y3, Y3      // a verbatim lane
	VMOVDQU   Y3, (DI)
	ADDQ      $32, DI
	MOVQ      R10, R8
	JMP       decloop

decdone:
	VZEROUPPER
	SUBQ dst+0(FP), DI
	SHRQ $5, DI
	MOVQ DI, n+56(FP)
	MOVQ R8, end+64(FP)
	RET
