#include "textflag.h"

// SSE2 only: no FMA, no AVX. Every lane multiplies and subtracts in the
// order of the Go loop it replaces (streamDampedGo, streamGo in rhs.go).
// Both walk l = 3 .. len(f)-2 two moments at a time, then one.

// func streamDampedSSE2(d, f, rA, rB []float64, k, kd float64)
TEXT ·streamDampedSSE2(SB), NOSPLIT, $0-112
	MOVQ     d_base+0(FP), DI
	MOVQ     f_base+24(FP), SI
	MOVQ     f_len+32(FP), CX
	MOVQ     rA_base+48(FP), R8
	MOVQ     rB_base+72(FP), R9
	MOVSD    k+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD    kd+104(FP), X9
	UNPCKLPD X9, X9
	SUBQ     $4, CX        // CX = number of moments
	ADDQ     $24, DI       // &d[3]
	ADDQ     $24, R8       // &rA[3]
	ADDQ     $24, R9       // &rB[3]
	ADDQ     $16, SI       // &f[2], so f[l-1] is at 0, f[l] at 8, f[l+1] at 16
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $~1, BX
	JZ       dtail

dloop:
	MOVUPD (R8)(AX*8), X0
	MOVUPD (SI)(AX*8), X1
	MULPD  X1, X0          // rA[l]*f[l-1]
	MOVUPD (R9)(AX*8), X2
	MOVUPD 16(SI)(AX*8), X3
	MULPD  X3, X2          // rB[l]*f[l+1]
	SUBPD  X2, X0
	MULPD  X8, X0          // k*(...)
	MOVUPD 8(SI)(AX*8), X4
	MULPD  X9, X4          // kd*f[l]
	SUBPD  X4, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    dloop

dtail:
	CMPQ  AX, CX
	JGE   ddone
	MOVSD (R8)(AX*8), X0
	MOVSD (SI)(AX*8), X1
	MULSD X1, X0
	MOVSD (R9)(AX*8), X2
	MOVSD 16(SI)(AX*8), X3
	MULSD X3, X2
	SUBSD X2, X0
	MULSD X8, X0
	MOVSD 8(SI)(AX*8), X4
	MULSD X9, X4
	SUBSD X4, X0
	MOVSD X0, (DI)(AX*8)

ddone:
	RET

// func streamSSE2(d, f, rA, rB []float64, k float64)
TEXT ·streamSSE2(SB), NOSPLIT, $0-104
	MOVQ     d_base+0(FP), DI
	MOVQ     f_base+24(FP), SI
	MOVQ     f_len+32(FP), CX
	MOVQ     rA_base+48(FP), R8
	MOVQ     rB_base+72(FP), R9
	MOVSD    k+96(FP), X8
	UNPCKLPD X8, X8
	SUBQ     $4, CX
	ADDQ     $24, DI
	ADDQ     $24, R8
	ADDQ     $24, R9
	ADDQ     $16, SI
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $~1, BX
	JZ       stail

sloop:
	MOVUPD (R8)(AX*8), X0
	MOVUPD (SI)(AX*8), X1
	MULPD  X1, X0
	MOVUPD (R9)(AX*8), X2
	MOVUPD 16(SI)(AX*8), X3
	MULPD  X3, X2
	SUBPD  X2, X0
	MULPD  X8, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    sloop

stail:
	CMPQ  AX, CX
	JGE   sdone
	MOVSD (R8)(AX*8), X0
	MOVSD (SI)(AX*8), X1
	MULSD X1, X0
	MOVSD (R9)(AX*8), X2
	MOVSD 16(SI)(AX*8), X3
	MULSD X3, X2
	SUBSD X2, X0
	MULSD X8, X0
	MOVSD X0, (DI)(AX*8)

sdone:
	RET
