#include "textflag.h"

// func blocksAVX2(out []byte, x uint64, t *blockTable) uint64
//
// DI = out, CX = blocks left, BX = state, SI = &t.rows, R8 = &t.next.
// Per byte j of the state: DX = that byte, R9 = DX·64, the row at
// SI + j·16384 + R9 and the next-state word at R8 + j·2048 + DX·8.
// Y0, Y1 gather the block, R10 the next state.
TEXT ·blocksAVX2(SB), NOSPLIT, $0-48
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x+24(FP), BX
	MOVQ t+32(FP), SI
	LEAQ 131072(SI), R8
	SHRQ $6, CX
	JZ   done

block:
	MOVQ BX, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VMOVDQU (SI)(R9*1), Y0
	VMOVDQU 32(SI)(R9*1), Y1
	MOVQ (R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $8, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 16384(SI)(R9*1), Y0, Y0
	VPXOR 16416(SI)(R9*1), Y1, Y1
	XORQ 2048(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $16, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 32768(SI)(R9*1), Y0, Y0
	VPXOR 32800(SI)(R9*1), Y1, Y1
	XORQ 4096(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $24, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 49152(SI)(R9*1), Y0, Y0
	VPXOR 49184(SI)(R9*1), Y1, Y1
	XORQ 6144(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $32, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 65536(SI)(R9*1), Y0, Y0
	VPXOR 65568(SI)(R9*1), Y1, Y1
	XORQ 8192(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $40, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 81920(SI)(R9*1), Y0, Y0
	VPXOR 81952(SI)(R9*1), Y1, Y1
	XORQ 10240(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $48, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 98304(SI)(R9*1), Y0, Y0
	VPXOR 98336(SI)(R9*1), Y1, Y1
	XORQ 12288(R8)(DX*8), R10
	MOVQ BX, DX
	SHRQ $56, DX
	ANDL $0xff, DX
	MOVQ DX, R9
	SHLQ $6, R9
	VPXOR 114688(SI)(R9*1), Y0, Y0
	VPXOR 114720(SI)(R9*1), Y1, Y1
	XORQ 14336(R8)(DX*8), R10
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	MOVQ R10, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  block
	VZEROUPPER

done:
	MOVQ BX, ret+40(FP)
	RET
