package lsa

import "hash/crc32"

// The frame checksum is CRC32C (see crcTable). On amd64 hosts with SSE4.2
// and PCLMULQDQ it runs in crc32c_amd64.s; everywhere else, and as the
// reference the tests hold the kernel to, in the functions below. Both
// take and return the checksum the way crc32.Update does (pre- and
// post-inverted), so a BodySum means the same thing on either path.

// Shape of the three-stream kernel. A body of at least crc32cSplitMin bytes
// is cut into three streams of L = crc32cStep·r bytes each, r rounds of one
// CRC32Q per stream per 8 bytes, and the streams' checksums are joined with
// a carry-less multiply by x^(8L−33) and x^(16L−33) mod P. The join
// constants for r = 1 … crc32cJoinRounds sit in a fixed table (crc32cJoin);
// a longer body is summed in blocks of crc32cBlock bytes, the table's
// largest split, before the remainder is split to fit.
const (
	crc32cSplitMin   = 2 * 3 * crc32cStep
	crc32cStep       = 24
	crc32cJoinRounds = 128
	crc32cBlock      = 3 * crc32cStep * crc32cJoinRounds
)

// crc32cGeneric is crc32.Update over the frame polynomial.
func crc32cGeneric(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crcTable, p)
}

// crc32cSealGeneric extends crc over the 13 trailer bytes ahead of the CRC
// — from and seq big-endian, then hops — without building them in memory.
func crc32cSealGeneric(crc, from uint32, seq uint64, hops uint8) uint32 {
	crc = ^crc
	for sh := 24; sh >= 0; sh -= 8 {
		crc = crcTable[byte(crc)^byte(from>>sh)] ^ crc>>8
	}
	for sh := 56; sh >= 0; sh -= 8 {
		crc = crcTable[byte(crc)^byte(seq>>sh)] ^ crc>>8
	}
	return ^(crcTable[byte(crc)^hops] ^ crc>>8)
}
