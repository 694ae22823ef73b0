#include "textflag.h"

// func lineSweepStride(x, b, w, u, inv *float64, m, stride int, groups *[4]int)
//
// Registers: DI and SI the x and b rows of position BX, DX the bytes from
// one position to the next, R11-R14 the four groups' byte offsets, R8-R10
// w, u and inv, CX m; Y0-Y3 the groups' carries, Y4-Y7 their operands, Y8
// and Y9 the position's factor entries. Every product is a VMULPD and every
// difference a VSUBPD, each rounded where sweepLines' scalar operations are.
TEXT ·lineSweepStride(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ u+24(FP), R9
	MOVQ inv+32(FP), R10
	MOVQ m+40(FP), CX
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ groups+56(FP), AX
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	MOVQ 16(AX), R13
	MOVQ 24(AX), R14
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   BX, BX

	// The forward sweep, x_p = b_p - w_p*x_{p-1}, from p = 0.
forward:
	VBROADCASTSD (R8)(BX*8), Y8
	VMOVUPD      (SI)(R11*1), Y4
	VMOVUPD      (SI)(R12*1), Y5
	VMOVUPD      (SI)(R13*1), Y6
	VMOVUPD      (SI)(R14*1), Y7
	VMULPD       Y0, Y8, Y0
	VMULPD       Y1, Y8, Y1
	VMULPD       Y2, Y8, Y2
	VMULPD       Y3, Y8, Y3
	VSUBPD       Y0, Y4, Y0
	VSUBPD       Y1, Y5, Y1
	VSUBPD       Y2, Y6, Y2
	VSUBPD       Y3, Y7, Y3
	VMOVUPD      Y0, (DI)(R11*1)
	VMOVUPD      Y1, (DI)(R12*1)
	VMOVUPD      Y2, (DI)(R13*1)
	VMOVUPD      Y3, (DI)(R14*1)
	ADDQ         DX, SI
	ADDQ         DX, DI
	INCQ         BX
	CMPQ         BX, CX
	JLT          forward

	// The backward sweep, x_p = (x_p - u_p*x_{p+1})*inv_p, from p = m-1.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

backward:
	DECQ         BX
	SUBQ         DX, DI
	VBROADCASTSD (R9)(BX*8), Y8
	VBROADCASTSD (R10)(BX*8), Y9
	VMOVUPD      (DI)(R11*1), Y4
	VMOVUPD      (DI)(R12*1), Y5
	VMOVUPD      (DI)(R13*1), Y6
	VMOVUPD      (DI)(R14*1), Y7
	VMULPD       Y0, Y8, Y0
	VMULPD       Y1, Y8, Y1
	VMULPD       Y2, Y8, Y2
	VMULPD       Y3, Y8, Y3
	VSUBPD       Y0, Y4, Y4
	VSUBPD       Y1, Y5, Y5
	VSUBPD       Y2, Y6, Y6
	VSUBPD       Y3, Y7, Y7
	VMULPD       Y9, Y4, Y0
	VMULPD       Y9, Y5, Y1
	VMULPD       Y9, Y6, Y2
	VMULPD       Y9, Y7, Y3
	VMOVUPD      Y0, (DI)(R11*1)
	VMOVUPD      Y1, (DI)(R12*1)
	VMOVUPD      Y2, (DI)(R13*1)
	VMOVUPD      Y3, (DI)(R14*1)
	TESTQ        BX, BX
	JNZ          backward
	VZEROUPPER
	RET

// LOAD2 loads two positions of a group's four lines, the lines at ptr,
// ptr+DX, ptr+2*DX and ptr+BX (BX = 3*DX), as two position vectors, p0 and
// p1: the rows' halves go in as (line 0 | line 2) and (line 1 | line 3)
// pairs, and one unpack of the pair makes each position's vector. Y12 is
// scratch.
#define LOAD2(ptr, p0, p1, xp0, xp1) \
	VMOVUPD     (ptr), xp0; \
	VINSERTF128 $1, (ptr)(DX*2), p0, p0; \
	VMOVUPD     (ptr)(DX*1), xp1; \
	VINSERTF128 $1, (ptr)(BX*1), p1, p1; \
	VUNPCKLPD   p1, p0, Y12; \
	VUNPCKHPD   p1, p0, p1; \
	VMOVAPD     Y12, p0

// STORE2 is LOAD2 backwards, through Y12 and Y13.
#define STORE2(ptr, p0, p1) \
	VUNPCKLPD    p1, p0, Y12; \
	VUNPCKHPD    p1, p0, Y13; \
	VMOVUPD      X12, (ptr); \
	VEXTRACTF128 $1, Y12, (ptr)(DX*2); \
	VMOVUPD      X13, (ptr)(DX*1); \
	VEXTRACTF128 $1, Y13, (ptr)(BX*1)

// GATHER loads one position of a group's four lines into one vector,
// through X12.
#define GATHER(ptr, y, xy) \
	VMOVSD      (ptr), xy; \
	VMOVHPD     (ptr)(DX*1), xy, xy; \
	VMOVSD      (ptr)(DX*2), X12; \
	VMOVHPD     (ptr)(BX*1), X12, X12; \
	VINSERTF128 $1, X12, y, y

// SCATTER stores a vector as one position of a group's four lines, through
// X12.
#define SCATTER(ptr, y, xy) \
	VMOVSD       xy, (ptr); \
	VMOVHPD      xy, (ptr)(DX*1); \
	VEXTRACTF128 $1, y, X12; \
	VMOVSD       X12, (ptr)(DX*2); \
	VMOVHPD      X12, (ptr)(BX*1)

// FSTEP is one forward step of a group: c = p - w*c, with w in Y14 (or
// the given register), through Y13; the result goes to p and c.
#define FSTEP(w, c, p) \
	VMULPD c, w, Y13; \
	VSUBPD Y13, p, p

// BSTEP is one backward step of a group: p = (p - u*c)*inv, u in Y14 and
// inv in Y15, through Y13.
#define BSTEP(c, p) \
	VMULPD c, Y14, Y13; \
	VSUBPD Y13, p, p; \
	VMULPD Y15, p, p

// func lineSweepOffset(x, b, w, u, inv *float64, m, stride int, groups *[4]int)
//
// Registers: R12-R15 the four groups' x rows at position AX, SI the bytes
// from x to b and DI the b rows of the group at hand, DX the bytes from one
// line to the next and BX three times that, R8-R10 w, u and inv, CX m and
// R11 the positions in full blocks of two; Y0-Y3 the groups' carries, Y4-Y7
// and Y8-Y11 their first and second positions of a block, Y12 and Y13
// scratch, Y14 and Y15 the factor entries. Each position's vector takes
// lineSweepStride's operations.
TEXT ·lineSweepOffset(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), DI
	MOVQ b+8(FP), SI
	SUBQ DI, SI
	MOVQ w+16(FP), R8
	MOVQ u+24(FP), R9
	MOVQ inv+32(FP), R10
	MOVQ m+40(FP), CX
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), BX
	MOVQ groups+56(FP), AX
	MOVQ 0(AX), R12
	MOVQ 8(AX), R13
	MOVQ 16(AX), R14
	MOVQ 24(AX), R15
	LEAQ (DI)(R12*8), R12
	LEAQ (DI)(R13*8), R13
	LEAQ (DI)(R14*8), R14
	LEAQ (DI)(R15*8), R15
	MOVQ CX, R11
	ANDQ $-2, R11
	XORQ AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	// The forward sweep, two positions a trip.
fblock:
	CMPQ AX, R11
	JGE  ftail
	LEAQ (R12)(SI*1), DI
	LOAD2(DI, Y4, Y8, X4, X8)
	LEAQ (R13)(SI*1), DI
	LOAD2(DI, Y5, Y9, X5, X9)
	LEAQ (R14)(SI*1), DI
	LOAD2(DI, Y6, Y10, X6, X10)
	LEAQ (R15)(SI*1), DI
	LOAD2(DI, Y7, Y11, X7, X11)
	VBROADCASTSD (R8)(AX*8), Y14
	VBROADCASTSD 8(R8)(AX*8), Y15
	FSTEP(Y14, Y0, Y4)
	FSTEP(Y14, Y1, Y5)
	FSTEP(Y14, Y2, Y6)
	FSTEP(Y14, Y3, Y7)
	FSTEP(Y15, Y4, Y8)
	FSTEP(Y15, Y5, Y9)
	FSTEP(Y15, Y6, Y10)
	FSTEP(Y15, Y7, Y11)
	VMOVAPD Y8, Y0
	VMOVAPD Y9, Y1
	VMOVAPD Y10, Y2
	VMOVAPD Y11, Y3
	STORE2(R12, Y4, Y8)
	STORE2(R13, Y5, Y9)
	STORE2(R14, Y6, Y10)
	STORE2(R15, Y7, Y11)
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $16, R14
	ADDQ $16, R15
	ADDQ $2, AX
	JMP  fblock

	// An odd m's last position.
ftail:
	CMPQ AX, CX
	JGE  backward
	LEAQ (R12)(SI*1), DI
	GATHER(DI, Y4, X4)
	LEAQ (R13)(SI*1), DI
	GATHER(DI, Y5, X5)
	LEAQ (R14)(SI*1), DI
	GATHER(DI, Y6, X6)
	LEAQ (R15)(SI*1), DI
	GATHER(DI, Y7, X7)
	VBROADCASTSD (R8)(AX*8), Y14
	FSTEP(Y14, Y0, Y4)
	FSTEP(Y14, Y1, Y5)
	FSTEP(Y14, Y2, Y6)
	FSTEP(Y14, Y3, Y7)
	SCATTER(R12, Y4, X4)
	SCATTER(R13, Y5, X5)
	SCATTER(R14, Y6, X6)
	SCATTER(R15, Y7, X7)
	INCQ AX

	// The backward sweep: an odd m's last position, then the blocks from
	// the end.
backward:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   AX, R11
	JLE    bblock
	DECQ   AX
	GATHER(R12, Y4, X4)
	GATHER(R13, Y5, X5)
	GATHER(R14, Y6, X6)
	GATHER(R15, Y7, X7)
	VBROADCASTSD (R9)(AX*8), Y14
	VBROADCASTSD (R10)(AX*8), Y15
	BSTEP(Y0, Y4)
	BSTEP(Y1, Y5)
	BSTEP(Y2, Y6)
	BSTEP(Y3, Y7)
	VMOVAPD Y4, Y0
	VMOVAPD Y5, Y1
	VMOVAPD Y6, Y2
	VMOVAPD Y7, Y3
	SCATTER(R12, Y4, X4)
	SCATTER(R13, Y5, X5)
	SCATTER(R14, Y6, X6)
	SCATTER(R15, Y7, X7)

bblock:
	TESTQ AX, AX
	JZ    done
	SUBQ  $2, AX
	SUBQ  $16, R12
	SUBQ  $16, R13
	SUBQ  $16, R14
	SUBQ  $16, R15
	LOAD2(R12, Y4, Y8, X4, X8)
	LOAD2(R13, Y5, Y9, X5, X9)
	LOAD2(R14, Y6, Y10, X6, X10)
	LOAD2(R15, Y7, Y11, X7, X11)
	VBROADCASTSD 8(R9)(AX*8), Y14
	VBROADCASTSD 8(R10)(AX*8), Y15
	BSTEP(Y0, Y8)
	BSTEP(Y1, Y9)
	BSTEP(Y2, Y10)
	BSTEP(Y3, Y11)
	VBROADCASTSD (R9)(AX*8), Y14
	VBROADCASTSD (R10)(AX*8), Y15
	BSTEP(Y8, Y4)
	BSTEP(Y9, Y5)
	BSTEP(Y10, Y6)
	BSTEP(Y11, Y7)
	VMOVAPD Y4, Y0
	VMOVAPD Y5, Y1
	VMOVAPD Y6, Y2
	VMOVAPD Y7, Y3
	STORE2(R12, Y4, Y8)
	STORE2(R13, Y5, Y9)
	STORE2(R14, Y6, Y10)
	STORE2(R15, Y7, Y11)
	JMP   bblock

done:
	VZEROUPPER
	RET
