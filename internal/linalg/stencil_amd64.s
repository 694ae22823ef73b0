#include "go_asm.h"
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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func stencilRows(y, x, u0, u1 *float64, c *[5]float64, rows, mx, col, lines int, masks *uint64, p0, p1 float64) (q0, q1 float64)
//
// Registers: DI y, SI x (the centre), R12 the south row, R13 the north
// row, R8 and R9 u0 and u1, R11 the row k, CX rows, DX mx, BX row k's
// column, AX the step of a column per trip (4 mod mx), R10 and R14 the
// west and east masks, R15 scratch; Y11-Y15 the coefficients south,
// west, centre, east, north; X4 the dots. (An ABI0 function may clobber
// R14 and X15: Go restores g and the zero register after the call.)
// Every product is a VMULPD and every sum a VADDPD: no FMA, so each
// rounds where mulStencil's scalar operations do.
TEXT ·stencilRows(SB), NOSPLIT, $0-112
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ u0+16(FP), R8
	MOVQ u1+24(FP), R9
	MOVQ c+32(FP), AX
	MOVQ rows+40(FP), CX
	MOVQ mx+48(FP), DX
	MOVQ col+56(FP), BX
	MOVQ masks+72(FP), R10
	VMOVSD  p0+80(FP), X4
	VMOVHPD p1+88(FP), X4, X4

	VBROADCASTSD 0(AX), Y11
	VBROADCASTSD 8(AX), Y12
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y14
	VBROADCASTSD 32(AX), Y15

	LEAQ (DX*8), AX
	MOVQ SI, R12
	SUBQ AX, R12
	LEAQ (SI)(AX*1), R13
	LEAQ 24(R10)(AX*1), R14

	MOVQ $4, AX
	CMPQ AX, DX
	JLT  stepped
	SUBQ DX, AX
	CMPQ AX, DX
	JLT  stepped
	SUBQ DX, AX

stepped:
	XORQ R11, R11

lanes:
	LEAQ 4(R11), R15
	CMPQ R15, CX
	JGT  row

	VXORPD Y0, Y0, Y0
	TESTQ  $const_laneSouth, lines+64(FP)
	JZ     west
	VMULPD (R12)(R11*8), Y11, Y1
	VADDPD Y1, Y0, Y0

west:
	VMULPD -8(SI)(R11*8), Y12, Y1
	VANDPD (R10)(BX*8), Y1, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (SI)(R11*8), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 8(SI)(R11*8), Y14, Y1
	VANDPD (R14)(BX*8), Y1, Y1
	VADDPD Y1, Y0, Y0
	TESTQ  $const_laneNorth, lines+64(FP)
	JZ     store
	VMULPD (R13)(R11*8), Y15, Y1
	VADDPD Y1, Y0, Y0

store:
	VMOVUPD Y0, (DI)(R11*8)
	TESTQ   R8, R8
	JZ      advance

	// The dots: X4 holds p0 and p1 in its two lanes, and each VADDPD adds
	// one row's two products, row after row, each u read after the store
	// above.
	VMULPD       (R8)(R11*8), Y0, Y1
	VMULPD       (R9)(R11*8), Y0, Y2
	VUNPCKLPD    Y2, Y1, Y3
	VUNPCKHPD    Y2, Y1, Y1
	VADDPD       X3, X4, X4
	VADDPD       X1, X4, X4
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y1, X1
	VADDPD       X3, X4, X4
	VADDPD       X1, X4, X4

advance:
	// The column steps by 4 mod mx and wraps below mx.
	ADDQ    AX, BX
	MOVQ    BX, R15
	SUBQ    DX, R15
	CMOVQCC R15, BX
	ADDQ    $4, R11
	JMP     lanes

	// The last rows, one at a time: a row skips the terms its lanes would
	// have masked to +0.
row:
	CMPQ R11, CX
	JGE  done

	VXORPD X0, X0, X0
	TESTQ  $const_laneSouth, lines+64(FP)
	JZ     rowwest
	VMULSD (R12)(R11*8), X11, X1
	VADDSD X1, X0, X0

rowwest:
	TESTQ  BX, BX
	JZ     rowcentre
	VMULSD -8(SI)(R11*8), X12, X1
	VADDSD X1, X0, X0

rowcentre:
	VMULSD (SI)(R11*8), X13, X1
	VADDSD X1, X0, X0
	INCQ   BX
	CMPQ   BX, DX
	JEQ    rownorth
	VMULSD 8(SI)(R11*8), X14, X1
	VADDSD X1, X0, X0

rownorth:
	TESTQ  $const_laneNorth, lines+64(FP)
	JZ     rowstore
	VMULSD (R13)(R11*8), X15, X1
	VADDSD X1, X0, X0

rowstore:
	VMOVSD X0, (DI)(R11*8)
	TESTQ  R8, R8
	JZ     rownext
	VMOVDDUP X0, X1
	VMOVSD   (R8)(R11*8), X2
	VMOVHPD  (R9)(R11*8), X2, X2
	VMULPD   X2, X1, X1
	VADDPD   X1, X4, X4

rownext:
	CMPQ BX, DX
	JNE  rowinc
	XORQ BX, BX

rowinc:
	INCQ R11
	JMP  row

done:
	VZEROUPPER
	VMOVSD  X4, q0+96(FP)
	VMOVHPD X4, q1+104(FP)
	RET
