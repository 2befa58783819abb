package lsa

import "hash/crc32"

// crc32cKernelOK says the host has the two instructions crc32c_amd64.s is
// written in: CRC32 (SSE4.2) and PCLMULQDQ, CPUID leaf 1, ECX bits 20 and
// 1. The amd64 baseline guarantees neither.
var crc32cKernelOK = func() bool {
	const sse42, pclmulqdq = 1 << 20, 1 << 1
	ecx := cpuidECX(1)
	return ecx&sse42 != 0 && ecx&pclmulqdq != 0
}()

// crc32cJoin[r-1] holds the constants joining three streams of L = 24·r
// bytes: x^(8L−33) and x^(16L−33) mod P, bit-reflected like the checksum.
// A stream's checksum r, carry-less multiplied by K and run through one
// CRC32Q from zero, is r·K·x^33 = r·x^(8L) (or x^(16L)) mod P: the checksum
// r would reach after L (or 2L) more zero bytes, which is what linearity
// needs to XOR it onto the later streams'. 1 KiB, built once.
var crc32cJoin = func() (t [crc32cJoinRounds][2]uint32) {
	x7 := uint32(1 << 31) // x^0, reflected
	for range 7 {
		x7 = x7>>1 ^ crc32.Castagnoli&-(x7&1)
	}
	kL, k2L := mulx8(x7, crc32cStep-5), mulx8(x7, 2*crc32cStep-5)
	for i := range t {
		t[i] = [2]uint32{kL, k2L}
		kL, k2L = mulx8(kL, crc32cStep), mulx8(k2L, 2*crc32cStep)
	}
	return t
}()

// mulx8 returns v·x^(8n) mod P for a bit-reflected v: v run through n zero
// bytes.
func mulx8(v uint32, n int) uint32 {
	for range n {
		v = crcTable[byte(v)] ^ v>>8
	}
	return v
}

func crc32c(crc uint32, p []byte) uint32 {
	if crc32cKernelOK {
		return crc32cSSE42(crc, p)
	}
	return crc32cGeneric(crc, p)
}

func crc32cSeal(crc, from uint32, seq uint64, hops uint8) uint32 {
	if crc32cKernelOK {
		return crc32cSealSSE42(crc, from, seq, hops)
	}
	return crc32cSealGeneric(crc, from, seq, hops)
}

// Implemented in crc32c_amd64.s.

func cpuidECX(leaf uint32) (ecx uint32)

//go:noescape
func crc32cSSE42(crc uint32, p []byte) (ret uint32)

func crc32cSealSSE42(crc, from uint32, seq uint64, hops uint8) (ret uint32)
