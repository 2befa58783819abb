package lsa

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"dgmc/internal/topo"
)

// crc32cImpls are the checksum paths a host can take: the dispatching one
// (the kernel wherever the CPU has it) and the fallback every other host
// runs.
var crc32cImpls = []struct {
	name string
	sum  func(uint32, []byte) uint32
	seal func(crc, from uint32, seq uint64, hops uint8) uint32
}{
	{"dispatch", crc32c, crc32cSeal},
	{"generic", crc32cGeneric, crc32cSealGeneric},
}

// TestCRC32CMatchesStdlib: both paths equal crc32.Update over the frame
// polynomial for every length up to 4 200 at every start offset within a
// word, around every block boundary up to MaxFramePayload, and over one
// MaxFramePayload-sized body — from random running checksums.
func TestCRC32CMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, MaxFramePayload+8)
	rng.Read(buf)
	check := func(t *testing.T, sum func(uint32, []byte) uint32, p []byte) {
		t.Helper()
		crc := rng.Uint32()
		if got, want := sum(crc, p), crc32.Update(crc, crcTable, p); got != want {
			t.Fatalf("len %d from %08x: got %08x, want %08x", len(p), crc, got, want)
		}
	}
	for _, impl := range crc32cImpls {
		t.Run(impl.name, func(t *testing.T) {
			for off := 0; off < 8; off++ {
				for n := 0; n <= 4200; n++ {
					check(t, impl.sum, buf[off:off+n])
				}
			}
			for n := crc32cBlock; n <= MaxFramePayload; n += crc32cBlock {
				for _, m := range []int{n - 1, n, n + 1} {
					check(t, impl.sum, buf[3:3+m])
				}
			}
			check(t, impl.sum, buf[:MaxFramePayload])
		})
	}
}

// TestCRC32CSeal: sealing from the field values equals summing the 13
// trailer bytes they encode to, negative switch ids included.
func TestCRC32CSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tr [trailerCRCOff]byte
	for _, impl := range crc32cImpls {
		for i := 0; i < 10000; i++ {
			crc, from, seq, hops := rng.Uint32(), topo.SwitchID(rng.Int31()), rng.Uint64(), uint8(rng.Intn(256))
			if i%2 == 1 {
				from = -from
			}
			binary.BigEndian.PutUint32(tr[trailerFromOff:], uint32(int32(from)))
			binary.BigEndian.PutUint64(tr[trailerSeqOff:], seq)
			tr[trailerHopsOff] = hops
			if got, want := impl.seal(crc, uint32(int32(from)), seq, hops), crc32.Update(crc, crcTable, tr[:]); got != want {
				t.Fatalf("%s: seal(%08x, %d, %d, %d) = %08x, want %08x", impl.name, crc, from, seq, hops, got, want)
			}
		}
	}
}
