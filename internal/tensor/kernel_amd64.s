#include "textflag.h"

// Each axpy kernel walks n floats (n > 0, a multiple of 8) eight lanes at
// a time: load d, then per row one VMULPS of the broadcast coefficient by
// the row and one VADDPS onto the running lane, in row order, then store
// d. No VFMADD: the product is rounded before it is added, as MULSS then
// ADDSS round it in the Go loop.

// func axpy4AVX2(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ         d+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), R8
	MOVQ         b2+24(FP), R9
	MOVQ         b3+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y8
	VBROADCASTSS a1+52(FP), Y9
	VBROADCASTSS a2+56(FP), Y10
	VBROADCASTSS a3+60(FP), Y11
	XORQ         AX, AX

axpy4loop:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS  (SI)(AX*4), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R8)(AX*4), Y9, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*4), Y10, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R10)(AX*4), Y11, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      axpy4loop
	VZEROUPPER
	RET

// func axpy3AVX2(d, b0, b1, b2 *float32, n int, a0, a1, a2 float32)
TEXT ·axpy3AVX2(SB), NOSPLIT, $0-52
	MOVQ         d+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), R8
	MOVQ         b2+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSS a0+40(FP), Y8
	VBROADCASTSS a1+44(FP), Y9
	VBROADCASTSS a2+48(FP), Y10
	XORQ         AX, AX

axpy3loop:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS  (SI)(AX*4), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R8)(AX*4), Y9, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*4), Y10, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      axpy3loop
	VZEROUPPER
	RET

// func axpy2AVX2(d, b0, b1 *float32, n int, a0, a1 float32)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSS a0+32(FP), Y8
	VBROADCASTSS a1+36(FP), Y9
	XORQ         AX, AX

axpy2loop:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS  (SI)(AX*4), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R8)(AX*4), Y9, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      axpy2loop
	VZEROUPPER
	RET

// func axpy1AVX2(d, b *float32, n int, a float32)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-28
	MOVQ         d+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y8
	XORQ         AX, AX

axpy1loop:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS  (SI)(AX*4), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      axpy1loop
	VZEROUPPER
	RET

// The panel kernels carry the running sums of a 16-row panel of a against
// b's rows through k terms: per term p, two loads of the panel's 16
// coefficients a[i][p], then per row of b one VBROADCASTSS of b_c[p] and,
// for each half of the panel, one VMULPS and one VADDPS onto that
// output's running lanes. Each lane is dot4's chain s += a[i][p]·b_c[p]
// in ascending p, the product rounded before the add: no VFMADD.

// func dotPanel4AVX2(panel, b0, b1, b2, b3 *float32, k int, acc *[64]float32)
// acc[16c+r] is the running sum of panel row r against b_c: the sixteen
// sums of each b_c stay in two registers for the whole of k, rows 0–7 of
// b_c in Y8+2c and rows 8–15 in Y9+2c.
TEXT ·dotPanel4AVX2(SB), NOSPLIT, $0-56
	MOVQ    panel+0(FP), SI
	MOVQ    b0+8(FP), R8
	MOVQ    b1+16(FP), R9
	MOVQ    b2+24(FP), R10
	MOVQ    b3+32(FP), R11
	MOVQ    k+40(FP), CX
	MOVQ    acc+48(FP), DI
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS 64(DI), Y10
	VMOVUPS 96(DI), Y11
	VMOVUPS 128(DI), Y12
	VMOVUPS 160(DI), Y13
	VMOVUPS 192(DI), Y14
	VMOVUPS 224(DI), Y15
	XORQ    AX, AX

panel4loop:
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VBROADCASTSS (R8)(AX*4), Y2
	VBROADCASTSS (R9)(AX*4), Y3
	VBROADCASTSS (R10)(AX*4), Y4
	VBROADCASTSS (R11)(AX*4), Y5
	VMULPS       Y0, Y2, Y6
	VADDPS       Y6, Y8, Y8
	VMULPS       Y1, Y2, Y7
	VADDPS       Y7, Y9, Y9
	VMULPS       Y0, Y3, Y6
	VADDPS       Y6, Y10, Y10
	VMULPS       Y1, Y3, Y7
	VADDPS       Y7, Y11, Y11
	VMULPS       Y0, Y4, Y6
	VADDPS       Y6, Y12, Y12
	VMULPS       Y1, Y4, Y7
	VADDPS       Y7, Y13, Y13
	VMULPS       Y0, Y5, Y6
	VADDPS       Y6, Y14, Y14
	VMULPS       Y1, Y5, Y7
	VADDPS       Y7, Y15, Y15
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JB           panel4loop

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	VZEROUPPER
	RET

// func dotPanel1AVX2(panel, b *float32, k int, acc *[16]float32)
// dotPanel4AVX2 against one row of b: the tail of b's rows past the last
// four.
TEXT ·dotPanel1AVX2(SB), NOSPLIT, $0-32
	MOVQ    panel+0(FP), SI
	MOVQ    b+8(FP), R8
	MOVQ    k+16(FP), CX
	MOVQ    acc+24(FP), DI
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	XORQ    AX, AX

panel1loop:
	VBROADCASTSS (R8)(AX*4), Y2
	VMULPS       (SI), Y2, Y6
	VADDPS       Y6, Y8, Y8
	VMULPS       32(SI), Y2, Y7
	VADDPS       Y7, Y9, Y9
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JB           panel1loop
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VZEROUPPER
	RET

// func sumAVX2(x *float32, n int) float32
// Four running sums of 32-float blocks, then single 8-float blocks into
// the first, then the lanes folded together.
TEXT ·sumAVX2(SB), NOSPLIT, $0-20
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-32, DX
	JZ     sum8

sum32loop:
	VADDPS (SI)(AX*4), Y0, Y0
	VADDPS 32(SI)(AX*4), Y1, Y1
	VADDPS 64(SI)(AX*4), Y2, Y2
	VADDPS 96(SI)(AX*4), Y3, Y3
	ADDQ   $32, AX
	CMPQ   AX, DX
	JB     sum32loop

sum8:
	CMPQ AX, CX
	JAE  fold

sum8loop:
	VADDPS (SI)(AX*4), Y0, Y0
	ADDQ   $8, AX
	CMPQ   AX, CX
	JB     sum8loop

fold:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+16(FP)
	RET
