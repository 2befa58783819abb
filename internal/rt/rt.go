// Package rt is the live concurrent runtime for D-GMC: each switch runs as
// one goroutine (a transport receive loop that also runs ReceiveLSA on what
// it receives), plus wall-clock resync timers and local events stepped on
// the caller's goroutine, around the same runtime-agnostic core.Machine that
// the discrete-event simulator drives.
// Nodes speak to each other only through a Transport carrying the wire
// frames of internal/lsa — an in-process channel fabric for tests and
// equivalence checking, or UDP sockets for real deployments (cmd/dgmcd).
//
// The protocol logic is not forked: internal/core owns Figures 4 and 5 and
// gap recovery; this package supplies the concurrency, the store-and-forward
// flooding, and the wall-clock timers the simulator models virtually.
package rt

import (
	"errors"

	"dgmc/internal/topo"
)

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("rt: transport closed")

// Transport is one switch's attachment to the fabric: a point-to-point
// datagram service to each direct neighbor. Implementations must be safe
// for concurrent use — the node's receive loop blocks in RecvBatch while
// protocol goroutines send.
//
// Buffer ownership is the whole contract. Send copies: data stays the
// caller's, to patch and send again. SendOwnedBatch moves: each buffer must
// be the caller's alone, and on every outcome — delivered, dropped in the
// fabric, unknown peer, closed — the transport has consumed it and the
// caller must not touch it again. Received frames belong to the
// receiver, which recycles them (putBuf) or moves them on. After Close,
// receives return ErrClosed (possibly wrapped), and so does every send the
// fabric can tell has nowhere left to go.
type Transport interface {
	// Send queues a copy of data for delivery to the named switch. Delivery
	// is best-effort: a lossy fabric (UDP under pressure) may drop frames,
	// which is exactly what the protocol's gap recovery exists for.
	Send(to topo.SwitchID, data []byte) error
	// SendOwnedBatch moves a burst of frames to one switch, in order, for
	// one hand-off: the frames of bufs go without a copy and are consumed
	// on every outcome, while the bufs slice itself stays the caller's, to
	// clear and refill. A nil error means the fabric took the whole burst
	// (and may still lose frames of it, as it may lose a Send); an error
	// means at least one frame had nowhere to go. This is how the node's
	// data plane sends: its fan-out stages frames per neighbour and flushes
	// each stage as one burst.
	SendOwnedBatch(to topo.SwitchID, bufs [][]byte) error
	// Recv blocks until a frame arrives and returns it, already settled. The
	// node never calls it — tools and tests that want one frame do.
	Recv() ([]byte, error)
	// RecvBatch blocks until at least one frame is waiting and returns the
	// whole backlog. recycle is the slice the previous call returned (nil at
	// first); the transport reuses its backing array. The frames stay
	// in flight until the receiver settles them with Release.
	RecvBatch(recycle [][]byte) ([][]byte, error)
	// Release settles n frames from RecvBatch as handled. A fabric that
	// counts frames in flight (ChanFabric.InFlight) stops counting them
	// here, so zero means nothing queued and nothing mid-handling. The node
	// settles a whole batch at once, after flushing everything the batch
	// made it stage: what a frame caused is counted before the frame stops
	// being counted.
	Release(n int)
	// RxWaits counts how the receiver's waits on an empty queue have ended:
	// in a park (it went to sleep, and the next frame paid for its wake-up)
	// or in a linger hit (a frame arrived while it was still yielding; see
	// frameQueue.popAll) — and how many yields the lingering took, parked
	// or hit. A transport whose receiver waits in the kernel (UDP) counts
	// none of them.
	RxWaits() (parks, lingerHits, yields uint64)
	// Close detaches from the fabric and unblocks blocked receivers.
	Close() error
}
