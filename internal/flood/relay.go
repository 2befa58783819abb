package flood

import "dgmc/internal/topo"

// Relay is one switch's flood state — the one rule for numbering, accepting
// and relaying a flood, run by the simulator's forwarders and the live
// runtime's nodes alike. Per origin it keeps a floor below which everything
// counts as seen plus a bitmap window of the seenWindow sequences above it:
// one fixed 136-byte window per origin however many floods pass. A sequence
// more than a window behind its origin's newest is refused even if never
// delivered; that takes a reorder no fabric produces, and gap resync
// recovers the LSA contents regardless — frame suppression is an
// optimisation, not the correctness layer. A Relay takes no locks; a host
// serializes its calls.
type Relay struct {
	self     topo.SwitchID
	switches int
	seq      uint64
	wins     []*seenWin // by origin; made on the first copy, as is each window
	origins  int
}

// NewRelay returns the flood state of switch self in a graph of switches
// switches. epoch namespaces self's sequences — epoch<<48 | counter — so a
// receiver's window slides past a previous incarnation's on first contact
// with this one and then refuses the stale frames still in flight.
func NewRelay(self topo.SwitchID, switches int, epoch uint64) *Relay {
	return &Relay{self: self, switches: switches, seq: epoch << 48}
}

// Next numbers a flood or unicast the switch originates.
func (r *Relay) Next() uint64 {
	r.seq++
	return r.seq
}

// Accept reports whether (origin, seq) is the first copy of a flood from
// another switch of the graph, recording it if so: it is false for the
// switch's own floods, a duplicate, a sequence below origin's window, and an
// origin outside the graph.
func (r *Relay) Accept(origin topo.SwitchID, seq uint64) bool {
	if origin == r.self || origin < 0 || int(origin) >= r.switches {
		return false
	}
	if r.wins == nil {
		r.wins = make([]*seenWin, r.switches)
	}
	w := r.wins[origin]
	if w == nil {
		w = new(seenWin)
		r.wins[origin] = w
		r.origins++
	}
	return w.mark(seq)
}

// Origins returns how many origins have a window.
func (r *Relay) Origins() int { return r.origins }

// RelaySkip names the two neighbours a switch does not relay a flood copy
// that reached it from `from` to: that sender and the flood's origin. Every
// other up neighbour gets a copy; an origin sending its own flood passes
// itself as from.
func RelaySkip(from, origin topo.SwitchID) [2]topo.SwitchID {
	return [2]topo.SwitchID{from, origin}
}

// seenWindow is the per-origin window width in sequence numbers (bits).
const seenWindow = 1024

const seenWords = seenWindow / 64

// seenWin tracks one origin: floor is the highest sequence such that every
// sequence ≤ floor counts as seen; ring holds bits for (floor, floor+seenWindow],
// indexed by seq mod seenWindow.
type seenWin struct {
	floor uint64
	ring  [seenWords]uint64
}

func (w *seenWin) test(seq uint64) bool {
	i := seq % seenWindow
	return w.ring[i/64]&(1<<(i%64)) != 0
}

func (w *seenWin) set(seq uint64) {
	i := seq % seenWindow
	w.ring[i/64] |= 1 << (i % 64)
}

func (w *seenWin) clearBit(seq uint64) {
	i := seq % seenWindow
	w.ring[i/64] &^= 1 << (i % 64)
}

// mark records seq, reporting whether it was new.
func (w *seenWin) mark(seq uint64) bool {
	if seq <= w.floor {
		return false
	}
	if seq > w.floor+seenWindow {
		// Slide the window so it ends at seq; sequences falling below the
		// new floor count as seen from here on.
		newFloor := seq - seenWindow
		if newFloor >= w.floor+seenWindow {
			w.ring = [seenWords]uint64{} // disjoint windows: drop everything
		} else {
			for f := w.floor + 1; f <= newFloor; f++ {
				w.clearBit(f)
			}
		}
		w.floor = newFloor
	}
	if w.test(seq) {
		return false
	}
	w.set(seq)
	// Advance the floor over the contiguous prefix, freeing window space.
	for w.test(w.floor + 1) {
		w.clearBit(w.floor + 1)
		w.floor++
	}
	return true
}
