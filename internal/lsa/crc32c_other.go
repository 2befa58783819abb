//go:build !amd64

package lsa

func crc32c(crc uint32, p []byte) uint32 { return crc32cGeneric(crc, p) }

func crc32cSeal(crc, from uint32, seq uint64, hops uint8) uint32 {
	return crc32cSealGeneric(crc, from, seq, hops)
}
