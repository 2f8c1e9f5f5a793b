#include "textflag.h"

// stepAVX2 walks n floats (n > 0, a multiple of 8) eight lanes at a time.
// Per block, the first source of each instruction is the operand the
// compiled Go loop (stepGo) takes first, which decides the payload where
// both are NaN:
//
//	g = G·scale; g = W·decay + g; V = V·mom − g·lr; W = W + V; G = 0
//
// No VFMADD: each product is rounded before it is added.

// func stepAVX2(w, v, grad *float32, n int, scale, decay, mom, lr float32)
TEXT ·stepAVX2(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS scale+32(FP), Y8
	VBROADCASTSS decay+36(FP), Y9
	VBROADCASTSS mom+40(FP), Y10
	VBROADCASTSS lr+44(FP), Y11
	VXORPS       Y12, Y12, Y12
	XORQ         AX, AX

steploop:
	VMOVUPS (DX)(AX*4), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS (DI)(AX*4), Y1
	VMULPS  Y9, Y1, Y2
	VADDPS  Y0, Y2, Y0
	VMOVUPS (SI)(AX*4), Y3
	VMULPS  Y10, Y3, Y3
	VMULPS  Y11, Y0, Y0
	VSUBPS  Y0, Y3, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y3, (SI)(AX*4)
	VMOVUPS Y12, (DX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      steploop
	VZEROUPPER
	RET
