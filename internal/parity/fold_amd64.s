#include "textflag.h"

// func foldAVX2(dst []byte, srcs [][]byte)
//
// DI = dst, CX = len(dst) (a multiple of 128), SI = &srcs[0],
// R8 = len(srcs) ≥ 1, AX = byte offset of the current chunk. A []byte
// header is 24 bytes, its base pointer first.
TEXT ·foldAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), R8
	XORQ AX, AX

chunk:
	CMPQ AX, CX
	JAE  done
	MOVQ (SI), R10
	VMOVDQU 0(R10)(AX*1), Y0
	VMOVDQU 32(R10)(AX*1), Y1
	VMOVDQU 64(R10)(AX*1), Y2
	VMOVDQU 96(R10)(AX*1), Y3
	LEAQ 24(SI), R11
	LEAQ -1(R8), R12
	TESTQ R12, R12
	JZ   store

source:
	MOVQ (R11), R10
	VPXOR 0(R10)(AX*1), Y0, Y0
	VPXOR 32(R10)(AX*1), Y1, Y1
	VPXOR 64(R10)(AX*1), Y2, Y2
	VPXOR 96(R10)(AX*1), Y3, Y3
	ADDQ $24, R11
	DECQ R12
	JNZ  source

store:
	VMOVDQU Y0, 0(DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	VMOVDQU Y2, 64(DI)(AX*1)
	VMOVDQU Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	JMP  chunk

done:
	VZEROUPPER
	RET
