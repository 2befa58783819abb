// Copyright 2011 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The three-stream loop and the single-stream tail below are those of
// hash/crc32's castagnoliSSE42Triple and castagnoliSSE42. What differs is
// around them: the whole body is split three ways, not 504- or 4 032-byte
// blocks of it, and the streams are joined by carry-less multiplication
// (Intel, "Fast CRC Computation for iSCSI Polynomial Using CRC32
// Instruction") instead of table lookups.

#include "go_asm.h"
#include "textflag.h"

// func cpuidECX(leaf uint32) (ecx uint32)
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+8(FP)
	RET

// crc32cSSE42 is crc32.Update over the Castagnoli polynomial.
//
// func crc32cSSE42(crc uint32, p []byte) (ret uint32)
TEXT ·crc32cSSE42(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), BX
	NOTL AX
	LEAQ ·crc32cJoin(SB), R12

split:
	// R11 = rounds: crc32cJoinRounds for a whole block, else len/72 computed as
	// (len>>3)·3641>>15, exact for len < 2^18.
	MOVQ $const_crc32cJoinRounds, R11
	CMPQ BX, $const_crc32cBlock
	JAE  triple
	CMPQ BX, $const_crc32cSplitMin
	JB   tail
	MOVQ BX, R11
	SHRQ $3, R11
	IMULQ $3641, R11
	SHRQ $15, R11

triple:
	// Streams A, B, C of L = 24·rounds bytes at R8, R9, R10; A continues
	// the running checksum, B and C start from zero.
	LEAQ (R11)(R11*2), R13
	SHLQ $3, R13
	MOVQ SI, R8
	LEAQ (SI)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	MOVL -8(R12)(R11*8), X2 // x^(8L-33)
	MOVL -4(R12)(R11*8), X3 // x^(16L-33)
	XORL CX, CX
	XORL DX, DX

loop:
	CRC32Q (R8), AX
	CRC32Q (R9), CX
	CRC32Q (R10), DX

	CRC32Q 8(R8), AX
	CRC32Q 8(R9), CX
	CRC32Q 8(R10), DX

	CRC32Q 16(R8), AX
	CRC32Q 16(R9), CX
	CRC32Q 16(R10), DX

	ADDQ $24, R8
	ADDQ $24, R9
	ADDQ $24, R10

	DECQ R11
	JNZ  loop

	// crc = A·x^(16L) ⊕ B·x^(8L) ⊕ C: both products through one CRC32Q.
	MOVL AX, X0
	MOVL CX, X1
	PCLMULQDQ $0x00, X3, X0
	PCLMULQDQ $0x00, X2, X1
	PXOR X1, X0
	MOVQ X0, R8
	XORL AX, AX
	CRC32Q R8, AX
	XORL DX, AX

	MOVQ R10, SI
	LEAQ (R13)(R13*2), R13
	SUBQ R13, BX
	JMP  split

tail:
	CMPQ BX, $8
	JB   less_than_8
	CRC32Q (SI), AX
	ADDQ $8, SI
	SUBQ $8, BX
	JMP  tail

less_than_8:
	BTQ $2, BX
	JNC less_than_4
	CRC32L (SI), AX
	ADDQ $4, SI

less_than_4:
	BTQ $1, BX
	JNC less_than_2
	CRC32W (SI), AX
	ADDQ $2, SI

less_than_2:
	BTQ $0, BX
	JNC done
	CRC32B (SI), AX

done:
	NOTL AX
	MOVL AX, ret+32(FP)
	RET

// crc32cSealSSE42 extends crc over a frame trailer's from, seq and hops,
// taken from registers in wire order.
//
// func crc32cSealSSE42(crc, from uint32, seq uint64, hops uint8) (ret uint32)
TEXT ·crc32cSealSSE42(SB), NOSPLIT, $0-28
	MOVL crc+0(FP), AX
	MOVL from+4(FP), BX
	MOVQ seq+8(FP), CX
	NOTL AX
	BSWAPL BX
	BSWAPQ CX
	CRC32L BX, AX
	CRC32Q CX, AX
	CRC32B hops+16(FP), AX
	NOTL AX
	MOVL AX, ret+24(FP)
	RET
