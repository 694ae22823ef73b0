#include "textflag.h"

// The vector kernels in four lanes. Each computes every element by its Go
// kernel's expression, operation for operation: a VMULPD, VADDPD, VSUBPD or
// VDIVPD for each of the expression's products, sums, differences and
// quotients (no FMA), and the last elements alone with the scalar forms. A
// kernel that also reduces adds its elements' products to the running
// partial one element at a time, in index order. Each loads every operand
// of an element before it stores the element, so an output may be an input
// of the same element.
//
// Each kernel is written as a four-element step macro (off the byte offset
// from element AX) and a scalar one. Its main loop takes eight elements a
// trip, two steps, tested at the bottom; one more four-element step and
// the scalar loop take the rest. A loop of one step a trip, tested at the
// top, ran Sub at up to 0.7x the Go kernel's time; eight a trip, at 0.3-0.5x.
//
// Registers: AX the element, CX n, DX the end of the full trips.

// The trip structure: eight elements a trip while they last (label
// name8), then four (name4), then one (name1), then name done.
#define TRIPS8(name8, name4) \
	MOVQ  CX, DX; \
	ANDQ  $-8, DX; \
	XORQ  AX, AX; \
	TESTQ DX, DX; \
	JZ    name4

#define TRIP4(name4, name1) \
	MOVQ CX, DX; \
	ANDQ $-4, DX; \
	CMPQ AX, DX; \
	JGE  name1

// func axpyLanes(v, x *float64, n int, a float64)
//
// v += a*x.
#define AXPY4(off) \
	VMULPD  off(SI)(AX*8), Y15, Y0; \
	VMOVUPD off(DI)(AX*8), Y1; \
	VADDPD  Y0, Y1, Y1; \
	VMOVUPD Y1, off(DI)(AX*8)

TEXT ·axpyLanes(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y15
	TRIPS8(axpy8, axpy4)

axpy8:
	AXPY4(0)
	AXPY4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  axpy8

axpy4:
	TRIP4(axpy4, axpy1)
	AXPY4(0)
	ADDQ $4, AX

axpy1:
	CMPQ   AX, CX
	JGE    axpydone
	VMULSD (SI)(AX*8), X15, X0
	VMOVSD (DI)(AX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func setAXPYLanes(v, y, x *float64, n int, a float64)
//
// v = y + a*x.
#define SETAXPY4(off) \
	VMULPD  off(SI)(AX*8), Y15, Y0; \
	VMOVUPD off(R8)(AX*8), Y1; \
	VADDPD  Y0, Y1, Y1; \
	VMOVUPD Y1, off(DI)(AX*8)

TEXT ·setAXPYLanes(SB), NOSPLIT, $0-40
	MOVQ         v+0(FP), DI
	MOVQ         y+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y15
	TRIPS8(setaxpy8, setaxpy4)

setaxpy8:
	SETAXPY4(0)
	SETAXPY4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  setaxpy8

setaxpy4:
	TRIP4(setaxpy4, setaxpy1)
	SETAXPY4(0)
	ADDQ $4, AX

setaxpy1:
	CMPQ   AX, CX
	JGE    setaxpydone
	VMULSD (SI)(AX*8), X15, X0
	VMOVSD (R8)(AX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    setaxpy1

setaxpydone:
	VZEROUPPER
	RET

// func setScaledLanes(v, x *float64, n int, a float64)
//
// v = a*x.
#define SCALED4(off) \
	VMULPD  off(SI)(AX*8), Y15, Y0; \
	VMOVUPD Y0, off(DI)(AX*8)

TEXT ·setScaledLanes(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y15
	TRIPS8(scaled8, scaled4)

scaled8:
	SCALED4(0)
	SCALED4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  scaled8

scaled4:
	TRIP4(scaled4, scaled1)
	SCALED4(0)
	ADDQ $4, AX

scaled1:
	CMPQ   AX, CX
	JGE    scaleddone
	VMULSD (SI)(AX*8), X15, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    scaled1

scaleddone:
	VZEROUPPER
	RET

// func subLanes(v, a, b *float64, n int)
//
// v = a - b.
#define SUB4(off) \
	VMOVUPD off(SI)(AX*8), Y0; \
	VSUBPD  off(R8)(AX*8), Y0, Y0; \
	VMOVUPD Y0, off(DI)(AX*8)

TEXT ·subLanes(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	TRIPS8(sub8, sub4)

sub8:
	SUB4(0)
	SUB4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  sub8

sub4:
	TRIP4(sub4, sub1)
	SUB4(0)
	ADDQ $4, AX

sub1:
	CMPQ   AX, CX
	JGE    subdone
	VMOVSD (SI)(AX*8), X0
	VSUBSD (R8)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    sub1

subdone:
	VZEROUPPER
	RET

// The terms of linCombLanes in the vector forms (mul VMULPD, add VADDPD, Y
// registers, off a byte offset) or the scalar ones (off 0): r0 = w0*x0 +
// w1*x1, then + w2*x2 and + w3*x3, through r1.
#define LCTERM2(off, mul, add, r0, r1, w0, w1) \
	mul off(R8)(AX*8), w0, r0; \
	mul off(R9)(AX*8), w1, r1; \
	add r1, r0, r0

#define LCTERM(off, mul, add, r0, r1, x, w) \
	mul off(x)(AX*8), w, r1; \
	add r1, r0, r0

#define LC2(off) \
	LCTERM2(off, VMULPD, VADDPD, Y0, Y1, Y12, Y13); \
	VMOVUPD Y0, off(DI)(AX*8)

#define LC3(off) \
	LCTERM2(off, VMULPD, VADDPD, Y0, Y1, Y12, Y13); \
	LCTERM(off, VMULPD, VADDPD, Y0, Y1, R10, Y14); \
	VMOVUPD Y0, off(DI)(AX*8)

#define LC4(off) \
	LCTERM2(off, VMULPD, VADDPD, Y0, Y1, Y12, Y13); \
	LCTERM(off, VMULPD, VADDPD, Y0, Y1, R10, Y14); \
	LCTERM(off, VMULPD, VADDPD, Y0, Y1, R11, Y15); \
	VMOVUPD Y0, off(DI)(AX*8)

// func linCombLanes(v *float64, w *[4]float64, x *[4]*float64, terms, n int)
//
// v = w0*x0 + w1*x1, then + w2*x2 and + w3*x3 as terms (2 to 4) asks, each
// count in its own loops.
TEXT ·linCombLanes(SB), NOSPLIT, $0-40
	MOVQ         v+0(FP), DI
	MOVQ         w+8(FP), SI
	MOVQ         x+16(FP), BX
	MOVQ         terms+24(FP), R12
	MOVQ         n+32(FP), CX
	VBROADCASTSD 0(SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	MOVQ         0(BX), R8
	MOVQ         8(BX), R9
	MOVQ         16(BX), R10
	MOVQ         24(BX), R11
	CMPQ         R12, $3
	JEQ          lc3
	JGT          lc4
	TRIPS8(lc2by8, lc2by4)

lc2by8:
	LC2(0)
	LC2(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  lc2by8

lc2by4:
	TRIP4(lc2by4, lc2by1)
	LC2(0)
	ADDQ $4, AX

lc2by1:
	CMPQ   AX, CX
	JGE    lcdone
	LCTERM2(0, VMULSD, VADDSD, X0, X1, X12, X13)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    lc2by1

lc3:
	TRIPS8(lc3by8, lc3by4)

lc3by8:
	LC3(0)
	LC3(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  lc3by8

lc3by4:
	TRIP4(lc3by4, lc3by1)
	LC3(0)
	ADDQ $4, AX

lc3by1:
	CMPQ   AX, CX
	JGE    lcdone
	LCTERM2(0, VMULSD, VADDSD, X0, X1, X12, X13)
	LCTERM(0, VMULSD, VADDSD, X0, X1, R10, X14)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    lc3by1

lc4:
	TRIPS8(lc4by8, lc4by4)

lc4by8:
	LC4(0)
	LC4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  lc4by8

lc4by4:
	TRIP4(lc4by4, lc4by1)
	LC4(0)
	ADDQ $4, AX

lc4by1:
	CMPQ   AX, CX
	JGE    lcdone
	LCTERM2(0, VMULSD, VADDSD, X0, X1, X12, X13)
	LCTERM(0, VMULSD, VADDSD, X0, X1, R10, X14)
	LCTERM(0, VMULSD, VADDSD, X0, X1, R11, X15)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    lc4by1

lcdone:
	VZEROUPPER
	RET

// func dirRangeLanes(pv, r, v *float64, n int, beta, omega float64)
//
// pv = r + beta*(pv - omega*v).
#define DIR4(off) \
	VMULPD  off(R8)(AX*8), Y15, Y0; \
	VMOVUPD off(DI)(AX*8), Y1; \
	VSUBPD  Y0, Y1, Y1; \
	VMULPD  Y1, Y14, Y1; \
	VMOVUPD off(SI)(AX*8), Y2; \
	VADDPD  Y1, Y2, Y2; \
	VMOVUPD Y2, off(DI)(AX*8)

TEXT ·dirRangeLanes(SB), NOSPLIT, $0-48
	MOVQ         pv+0(FP), DI
	MOVQ         r+8(FP), SI
	MOVQ         v+16(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSD beta+32(FP), Y14
	VBROADCASTSD omega+40(FP), Y15
	TRIPS8(dir8, dir4)

dir8:
	DIR4(0)
	DIR4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  dir8

dir4:
	TRIP4(dir4, dir1)
	DIR4(0)
	ADDQ $4, AX

dir1:
	CMPQ   AX, CX
	JGE    dirdone
	VMULSD (R8)(AX*8), X15, X0
	VMOVSD (DI)(AX*8), X1
	VSUBSD X0, X1, X1
	VMULSD X1, X14, X1
	VMOVSD (SI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    dir1

dirdone:
	VZEROUPPER
	RET

// func xrLanes(x, ph, sh, r, s, t, rt *float64, n int, alpha, omega, negOmega float64) (rr, rtr float64)
//
// x += alpha*ph + omega*sh; e = s + negOmega*t; r = e; and X4 holds the
// partials of <r, r> and <rt, r> in its two lanes, one VADDPD an element
// adding that element's two products. A step loads its operands before it
// stores x and r: stored first, they stalled the loads of the other streams
// at the same offset modulo 4 KiB.
#define XR4(off) \
	VMULPD       off(SI)(AX*8), Y13, Y0; \
	VMULPD       off(R8)(AX*8), Y14, Y1; \
	VMOVUPD      off(DI)(AX*8), Y2; \
	VMULPD       off(R11)(AX*8), Y15, Y5; \
	VMOVUPD      off(R10)(AX*8), Y6; \
	VMOVUPD      off(R12)(AX*8), Y3; \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       Y0, Y2, Y2; \
	VADDPD       Y5, Y6, Y1; \
	VMOVUPD      Y2, off(DI)(AX*8); \
	VMOVUPD      Y1, off(R9)(AX*8); \
	VMULPD       Y1, Y1, Y2; \
	VMULPD       Y1, Y3, Y3; \
	VUNPCKLPD    Y3, Y2, Y0; \
	VUNPCKHPD    Y3, Y2, Y2; \
	VADDPD       X0, X4, X4; \
	VADDPD       X2, X4, X4; \
	VEXTRACTF128 $1, Y0, X0; \
	VEXTRACTF128 $1, Y2, X2; \
	VADDPD       X0, X4, X4; \
	VADDPD       X2, X4, X4

TEXT ·xrLanes(SB), NOSPLIT, $0-104
	MOVQ         x+0(FP), DI
	MOVQ         ph+8(FP), SI
	MOVQ         sh+16(FP), R8
	MOVQ         r+24(FP), R9
	MOVQ         s+32(FP), R10
	MOVQ         t+40(FP), R11
	MOVQ         rt+48(FP), R12
	MOVQ         n+56(FP), CX
	VBROADCASTSD alpha+64(FP), Y13
	VBROADCASTSD omega+72(FP), Y14
	VBROADCASTSD negOmega+80(FP), Y15
	VXORPD       X4, X4, X4
	TRIPS8(xr8, xr4)

xr8:
	XR4(0)
	XR4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  xr8

xr4:
	TRIP4(xr4, xr1)
	XR4(0)
	ADDQ $4, AX

xr1:
	CMPQ      AX, CX
	JGE       xrdone
	VMULSD    (SI)(AX*8), X13, X0
	VMULSD    (R8)(AX*8), X14, X1
	VADDSD    X1, X0, X0
	VMOVSD    (DI)(AX*8), X2
	VADDSD    X0, X2, X2
	VMOVSD    X2, (DI)(AX*8)
	VMULSD    (R11)(AX*8), X15, X0
	VMOVSD    (R10)(AX*8), X1
	VADDSD    X0, X1, X1
	VMOVSD    X1, (R9)(AX*8)
	VMULSD    X1, X1, X2
	VMOVSD    (R12)(AX*8), X3
	VMULSD    X1, X3, X3
	VUNPCKLPD X3, X2, X0
	VADDPD    X0, X4, X4
	INCQ      AX
	JMP       xr1

xrdone:
	VZEROUPPER
	VMOVSD  X4, rr+88(FP)
	VMOVHPD X4, rtr+96(FP)
	RET

// func axpbyWRMSLanes(v, y, x, z *float64, n int, a, b, c, atol, rtol float64) float64
//
// v = y + a*x + b*z; e = c*(x + z) / (atol + rtol*|y|), returning the
// partial of the e*e. |y| clears the sign bit (Y15), as math.Abs does.
#define WRMS4(off) \
	VMOVUPD      off(SI)(AX*8), Y0; \
	VMOVUPD      off(R8)(AX*8), Y1; \
	VMOVUPD      off(R9)(AX*8), Y2; \
	VMULPD       Y1, Y10, Y3; \
	VADDPD       Y3, Y0, Y3; \
	VMULPD       Y2, Y11, Y5; \
	VADDPD       Y5, Y3, Y3; \
	VMOVUPD      Y3, off(DI)(AX*8); \
	VADDPD       Y2, Y1, Y1; \
	VMULPD       Y1, Y12, Y1; \
	VANDPD       Y15, Y0, Y0; \
	VMULPD       Y0, Y14, Y0; \
	VADDPD       Y0, Y13, Y0; \
	VDIVPD       Y0, Y1, Y1; \
	VMULPD       Y1, Y1, Y2; \
	VADDSD       X2, X4, X4; \
	VPERMILPD    $1, X2, X3; \
	VADDSD       X3, X4, X4; \
	VEXTRACTF128 $1, Y2, X2; \
	VADDSD       X2, X4, X4; \
	VPERMILPD    $1, X2, X3; \
	VADDSD       X3, X4, X4

TEXT ·axpbyWRMSLanes(SB), NOSPLIT, $0-88
	MOVQ         v+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         x+16(FP), R8
	MOVQ         z+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD a+40(FP), Y10
	VBROADCASTSD b+48(FP), Y11
	VBROADCASTSD c+56(FP), Y12
	VBROADCASTSD atol+64(FP), Y13
	VBROADCASTSD rtol+72(FP), Y14
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $1, Y15, Y15
	VXORPD       X4, X4, X4
	TRIPS8(wrms8, wrms4)

wrms8:
	WRMS4(0)
	WRMS4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  wrms8

wrms4:
	TRIP4(wrms4, wrms1)
	WRMS4(0)
	ADDQ $4, AX

wrms1:
	CMPQ   AX, CX
	JGE    wrmsdone
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R8)(AX*8), X1
	VMOVSD (R9)(AX*8), X2
	VMULSD X1, X10, X3
	VADDSD X3, X0, X3
	VMULSD X2, X11, X5
	VADDSD X5, X3, X3
	VMOVSD X3, (DI)(AX*8)
	VADDSD X2, X1, X1
	VMULSD X1, X12, X1
	VANDPD X15, X0, X0
	VMULSD X0, X14, X0
	VADDSD X0, X13, X0
	VDIVSD X0, X1, X1
	VMULSD X1, X1, X2
	VADDSD X2, X4, X4
	INCQ   AX
	JMP    wrms1

wrmsdone:
	VZEROUPPER
	VMOVSD X4, ret+80(FP)
	RET
