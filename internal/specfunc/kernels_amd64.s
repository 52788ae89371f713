#include "textflag.h"

// SSE2 only: no FMA, no AVX, no SSE3 (MOVDDUP): a scalar is put in both
// lanes with UNPCKLPD or UNPCKHPD. Each lane is one table row and
// multiplies and adds in the order of the Go loop it replaces
// (accumStencil4Go, accumNodes4Go in besseltable.go). A pair node holds
// [j_a, j_b, j'_a, j'_b, q_a, q_b]: 48 bytes.

// func accumStencilSSE2(sums *[4]float64, pa, pb *float64, off *int32, w *[4]float64, sA, sB, sC *float64, n int)
TEXT ·accumStencilSSE2(SB), NOSPLIT, $0-72
	MOVQ   sums+0(FP), DI
	MOVQ   pa+8(FP), SI
	MOVQ   pb+16(FP), DX
	MOVQ   off+24(FP), R8
	MOVQ   w+32(FP), R9
	MOVQ   sA+40(FP), R10
	MOVQ   sB+48(FP), R11
	MOVQ   sC+56(FP), R12
	MOVQ   n+64(FP), CX
	TESTQ  CX, CX
	JLE    sdone
	MOVUPD 0(DI), X14
	MOVUPD 16(DI), X15
	XORQ   AX, AX

sloop:
	MOVLQSX (R8)(AX*4), BX  // pair offset in doubles
	MOVUPD  0(R9), X0
	MOVUPD  16(R9), X2
	MOVAPD  X0, X1
	UNPCKLPD X0, X0         // w0
	UNPCKHPD X1, X1         // w1
	MOVAPD  X2, X3
	UNPCKLPD X2, X2         // w2
	UNPCKHPD X3, X3         // w3
	MOVSD   (R10)(AX*8), X4
	UNPCKLPD X4, X4         // a
	MOVSD   (R11)(AX*8), X5
	UNPCKLPD X5, X5         // b
	MOVSD   (R12)(AX*8), X6
	UNPCKLPD X6, X6         // c
	LEAQ    (SI)(BX*8), R13
	LEAQ    (DX)(BX*8), BX

	// Pair a: J into X7, J' into X8, then Q into X9.
	MOVUPD 0(R13), X7
	MULPD  X0, X7
	MOVUPD 48(R13), X9
	MULPD  X1, X9
	ADDPD  X9, X7
	MOVUPD 96(R13), X9
	MULPD  X2, X9
	ADDPD  X9, X7
	MOVUPD 144(R13), X9
	MULPD  X3, X9
	ADDPD  X9, X7
	MULPD  X4, X7           // a*J
	MOVUPD 16(R13), X8
	MULPD  X0, X8
	MOVUPD 64(R13), X9
	MULPD  X1, X9
	ADDPD  X9, X8
	MOVUPD 112(R13), X9
	MULPD  X2, X9
	ADDPD  X9, X8
	MOVUPD 160(R13), X9
	MULPD  X3, X9
	ADDPD  X9, X8
	MULPD  X5, X8           // b*J'
	ADDPD  X8, X7
	MOVUPD 32(R13), X8
	MULPD  X0, X8
	MOVUPD 80(R13), X9
	MULPD  X1, X9
	ADDPD  X9, X8
	MOVUPD 128(R13), X9
	MULPD  X2, X9
	ADDPD  X9, X8
	MOVUPD 176(R13), X9
	MULPD  X3, X9
	ADDPD  X9, X8
	MULPD  X6, X8           // c*Q
	ADDPD  X8, X7
	ADDPD  X7, X14

	// Pair b, the same in X10-X12.
	MOVUPD 0(BX), X10
	MULPD  X0, X10
	MOVUPD 48(BX), X12
	MULPD  X1, X12
	ADDPD  X12, X10
	MOVUPD 96(BX), X12
	MULPD  X2, X12
	ADDPD  X12, X10
	MOVUPD 144(BX), X12
	MULPD  X3, X12
	ADDPD  X12, X10
	MULPD  X4, X10
	MOVUPD 16(BX), X11
	MULPD  X0, X11
	MOVUPD 64(BX), X12
	MULPD  X1, X12
	ADDPD  X12, X11
	MOVUPD 112(BX), X12
	MULPD  X2, X12
	ADDPD  X12, X11
	MOVUPD 160(BX), X12
	MULPD  X3, X12
	ADDPD  X12, X11
	MULPD  X5, X11
	ADDPD  X11, X10
	MOVUPD 32(BX), X11
	MULPD  X0, X11
	MOVUPD 80(BX), X12
	MULPD  X1, X12
	ADDPD  X12, X11
	MOVUPD 128(BX), X12
	MULPD  X2, X12
	ADDPD  X12, X11
	MOVUPD 176(BX), X12
	MULPD  X3, X12
	ADDPD  X12, X11
	MULPD  X6, X11
	ADDPD  X11, X10
	ADDPD  X10, X15

	ADDQ   $32, R9
	INCQ   AX
	CMPQ   AX, CX
	JLT    sloop
	MOVUPD X14, 0(DI)
	MOVUPD X15, 16(DI)

sdone:
	RET

// func accumNodesSSE2(sums *[4]float64, pa, pb *float64, sA, sB, sC *float64, n int)
TEXT ·accumNodesSSE2(SB), NOSPLIT, $0-56
	MOVQ   sums+0(FP), DI
	MOVQ   pa+8(FP), SI
	MOVQ   pb+16(FP), DX
	MOVQ   sA+24(FP), R10
	MOVQ   sB+32(FP), R11
	MOVQ   sC+40(FP), R12
	MOVQ   n+48(FP), CX
	TESTQ  CX, CX
	JLE    ndone
	MOVUPD 0(DI), X14
	MOVUPD 16(DI), X15
	XORQ   AX, AX

nloop:
	MOVSD    (R10)(AX*8), X4
	UNPCKLPD X4, X4         // a
	MOVSD    (R11)(AX*8), X5
	UNPCKLPD X5, X5         // b
	MOVSD    (R12)(AX*8), X6
	UNPCKLPD X6, X6         // c
	MOVUPD   0(SI), X7
	MULPD    X4, X7         // a*J
	MOVUPD   16(SI), X8
	MULPD    X5, X8         // b*J'
	ADDPD    X8, X7
	MOVUPD   32(SI), X9
	MULPD    X6, X9         // c*Q
	ADDPD    X9, X7
	ADDPD    X7, X14
	MOVUPD   0(DX), X10
	MULPD    X4, X10
	MOVUPD   16(DX), X11
	MULPD    X5, X11
	ADDPD    X11, X10
	MOVUPD   32(DX), X12
	MULPD    X6, X12
	ADDPD    X12, X10
	ADDPD    X10, X15
	SUBQ     $48, SI
	SUBQ     $48, DX
	INCQ     AX
	CMPQ     AX, CX
	JLT      nloop
	MOVUPD   X14, 0(DI)
	MOVUPD   X15, 16(DI)

ndone:
	RET

