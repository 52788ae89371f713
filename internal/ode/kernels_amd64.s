#include "textflag.h"

// SSE2 only: no FMA, no AVX. Every lane multiplies and adds in the order
// of the Go loop it replaces (accumGo, flushGo in ode.go).

// func accumSSE2(dst []float64, base *float64, c *[16]float64, k *[8]*float64, m int)
TEXT ·accumSSE2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ base+24(FP), SI
	MOVQ c+32(FP), R8
	MOVQ k+40(FP), R9
	MOVQ m+48(FP), R10
	XORQ AX, AX            // AX = i
	MOVQ CX, BX
	ANDQ $~15, BX          // BX = len(dst) rounded down to 16
	JZ   pairs

loop16:
	// Sixteen components as eight independent chains: one dependent chain
	// per loop trip is no faster than the scalar loop.
	MOVUPD 0(SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD 32(SI)(AX*8), X2
	MOVUPD 48(SI)(AX*8), X3
	MOVUPD 64(SI)(AX*8), X4
	MOVUPD 80(SI)(AX*8), X5
	MOVUPD 96(SI)(AX*8), X6
	MOVUPD 112(SI)(AX*8), X7
	XORQ   DX, DX          // DX = term
	MOVQ   R8, R11         // R11 = &c[2*term]

term16:
	MOVUPD (R11), X8
	MOVQ   (R9)(DX*8), R12
	MOVUPD 0(R12)(AX*8), X9
	MOVUPD 16(R12)(AX*8), X10
	MOVUPD 32(R12)(AX*8), X11
	MOVUPD 48(R12)(AX*8), X12
	MULPD  X8, X9
	MULPD  X8, X10
	MULPD  X8, X11
	MULPD  X8, X12
	ADDPD  X9, X0
	ADDPD  X10, X1
	ADDPD  X11, X2
	ADDPD  X12, X3
	MOVUPD 64(R12)(AX*8), X9
	MOVUPD 80(R12)(AX*8), X10
	MOVUPD 96(R12)(AX*8), X11
	MOVUPD 112(R12)(AX*8), X12
	MULPD  X8, X9
	MULPD  X8, X10
	MULPD  X8, X11
	MULPD  X8, X12
	ADDPD  X9, X4
	ADDPD  X10, X5
	ADDPD  X11, X6
	ADDPD  X12, X7
	ADDQ   $16, R11
	INCQ   DX
	CMPQ   DX, R10
	JLT    term16
	MOVUPD X0, 0(DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	MOVUPD X2, 32(DI)(AX*8)
	MOVUPD X3, 48(DI)(AX*8)
	MOVUPD X4, 64(DI)(AX*8)
	MOVUPD X5, 80(DI)(AX*8)
	MOVUPD X6, 96(DI)(AX*8)
	MOVUPD X7, 112(DI)(AX*8)
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLT    loop16

pairs:
	MOVQ CX, BX
	ANDQ $~1, BX
	CMPQ AX, BX
	JGE  tail

loop2:
	MOVUPD (SI)(AX*8), X0
	XORQ   DX, DX
	MOVQ   R8, R11

term2:
	MOVUPD (R11), X8
	MOVQ   (R9)(DX*8), R12
	MOVUPD (R12)(AX*8), X4
	MULPD  X8, X4
	ADDPD  X4, X0
	ADDQ   $16, R11
	INCQ   DX
	CMPQ   DX, R10
	JLT    term2
	MOVUPD X0, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    loop2

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X0
	XORQ  DX, DX
	MOVQ  R8, R11

term1:
	MOVSD (R11), X8
	MOVQ  (R9)(DX*8), R12
	MOVSD (R12)(AX*8), X4
	MULSD X8, X4
	ADDSD X4, X0
	ADDQ  $16, R11
	INCQ  DX
	CMPQ  DX, R10
	JLT   term1
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func flushSSE2(dst, src []float64, below float64)
TEXT ·flushSSE2(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     src_len+32(FP), CX
	MOVSD    below+48(FP), X6
	UNPCKLPD X6, X6        // below in both lanes
	PCMPEQL  X7, X7
	PSRLQ    $1, X7        // X7 = ^sign bit in both lanes
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $~1, BX
	JZ       ftail

floop:
	MOVUPD (SI)(AX*8), X0
	MOVAPD X0, X1
	ANDPD  X7, X1          // |v|
	CMPPD  X6, X1, 1       // |v| < below: all ones; false for a NaN
	ANDNPD X0, X1          // v, or +0 where the compare held
	MOVUPD X1, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    floop

ftail:
	CMPQ   AX, CX
	JGE    fdone
	MOVSD  (SI)(AX*8), X0
	MOVAPD X0, X1
	ANDPD  X7, X1
	CMPSD  X6, X1, 1
	ANDNPD X0, X1
	MOVSD  X1, (DI)(AX*8)

fdone:
	RET
