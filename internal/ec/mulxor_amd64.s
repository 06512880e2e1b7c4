#include "textflag.h"

// func mulXorSSSE3(tbl *[2][16]byte, dst, src []byte)
//
// dst[i] ^= lo[src[i]&15] ^ hi[src[i]>>4] for every byte of dst, 16 at
// a time: PSHUFB looks up 16 bytes of a 16-entry table per instruction.
// A loop unrolled to 32 bytes was 15-30 % faster per call on a 2-vCPU
// AVX-512 Xeon but did not move parity_degraded's setup_s over ten
// pairs, so it is not.
TEXT ·mulXorSSSE3(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $4, CX
	JZ   done
	MOVOU (AX), X6   // low-nibble products
	MOVOU 16(AX), X7 // high-nibble products
	MOVQ $15, DX
	MOVQ DX, X8
	PXOR X9, X9
	PSHUFB X9, X8    // 0x0f in every byte

loop:
	MOVOU (SI), X0
	MOVOU X0, X1
	PSRLQ $4, X1
	PAND X8, X0      // low nibbles
	PAND X8, X1      // high nibbles
	MOVOU X6, X2
	MOVOU X7, X3
	PSHUFB X0, X2
	PSHUFB X1, X3
	MOVOU (DI), X4
	PXOR X2, X4
	PXOR X3, X4
	MOVOU X4, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  loop

done:
	RET

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET
