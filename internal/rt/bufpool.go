package rt

import "sync"

// The frame buffer pool is size-classed. Almost every buffer flowing
// through a node is small — data frames of header + a short payload,
// control floods of a few hundred bytes — while UDPTransport.Recv rents a
// full 64 KiB datagram buffer per call. One shared pool let the populations
// mix: a burst of UDP receives seeded it with 64 KiB arrays that the
// per-frame copy path then rented for 30-byte frames, pinning megabytes of
// backing array behind kilobyte-scale traffic. Classes keep each population
// recycling among its own.
const (
	// smallBufCap holds what the data plane moves at saturation: a 64 B data
	// frame is 95 B on the wire, an MC LSA at the paper's n = 100 is 510 B.
	smallBufCap = 512
	// midBufCap holds full-size data frames (1400 B payloads) and every
	// control payload short of a resync response.
	midBufCap = 4096
	// maxPooledBuf caps the capacity of buffers the pool retains. It matches
	// the receive-side maximum (maxUDPFrame) so every buffer that flows
	// through the node — pooled or caller-supplied — is eligible for reuse,
	// while anything freakishly larger is left for the collector.
	maxPooledBuf = maxUDPFrame
)

// The pools hold array pointers, not slices: a *[N]byte fits an interface
// word, so a round trip is one pool operation each way and no allocation,
// where a slice needed a 24-byte box allocated on every put. The slice a
// renter sees is the array cut to length zero; putBuf recovers the array
// pointer from any slice over it with Go's slice-to-array-pointer
// conversion. They stay sync.Pools — rather than free lists, which would be
// cheaper still — because a sync.Pool gives everything back to the
// collector within two cycles: an idle node retains no frame memory.
var (
	smallPool = sync.Pool{New: func() any { return new([smallBufCap]byte) }}
	midPool   = sync.Pool{New: func() any { return new([midBufCap]byte) }}
	largePool = sync.Pool{New: func() any { return new([maxPooledBuf]byte) }}
)

// getBuf returns a zero-length buffer with at least minCap capacity.
func getBuf(minCap int) []byte {
	switch {
	case minCap <= smallBufCap:
		return smallPool.Get().(*[smallBufCap]byte)[:0]
	case minCap <= midBufCap:
		return midPool.Get().(*[midBufCap]byte)[:0]
	case minCap <= maxPooledBuf:
		return largePool.Get().(*[maxPooledBuf]byte)[:0]
	}
	return make([]byte, 0, minCap)
}

// putBuf hands a buffer back to the largest size class its capacity covers.
// The caller must not touch b (or any slice aliasing it) afterwards; decoded
// messages never alias frame buffers (every payload decoder copies out),
// which is what makes recycling on the receive path safe. Buffers too small
// for the small class or too large for the large class go to the collector
// rather than poisoning a class.
func putBuf(b []byte) {
	switch c := cap(b); {
	case c > maxPooledBuf: // the collector's
	case c == maxPooledBuf:
		largePool.Put((*[maxPooledBuf]byte)(b[:maxPooledBuf]))
	case c >= midBufCap:
		midPool.Put((*[midBufCap]byte)(b[:midBufCap]))
	case c >= smallBufCap:
		smallPool.Put((*[smallBufCap]byte)(b[:smallBufCap]))
	}
}

// putBufs hands back every buffer of a batch: a refused burst, a drained
// stash.
func putBufs(bufs [][]byte) {
	for _, b := range bufs {
		putBuf(b)
	}
}
