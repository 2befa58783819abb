package flood

import (
	"fmt"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// This file implements the Reliable mode: hop-by-hop flooding hardened with
// per-link acknowledgements and retransmission, in the style of OSPF's
// reliable flooding (ack/retransmit per adjacency). Each data transmission
// over a link is tracked by the sender until the receiving switch
// acknowledges it; unacknowledged transmissions are retried with
// exponential backoff up to a bounded retry budget. Duplicates created by
// retransmission (or injected by a fault plan) are absorbed by the switch's
// Relay, and every received copy is re-acked so a lost ack cannot wedge the
// sender; forward, in flood.go, is the receiving side.

// ReliabilityStats counts the reliable transport's activity. All counters
// are cumulative; ResetCounters does not clear them (use Reliability once
// per run).
type ReliabilityStats struct {
	// DataSends counts first-attempt data transmissions.
	DataSends uint64
	// Retransmits counts retransmissions after an unacknowledged timeout.
	Retransmits uint64
	// AcksSent counts acknowledgements originated by receivers.
	AcksSent uint64
	// AcksReceived counts acknowledgements that made it back to a sender.
	AcksReceived uint64
	// Drops counts transmissions (data or ack) lost to injected faults.
	Drops uint64
	// Duplicated counts extra deliveries injected by the fault plan.
	Duplicated uint64
	// DupSuppressed counts received copies discarded as duplicates.
	DupSuppressed uint64
	// GiveUps counts transmissions abandoned after the retry budget.
	GiveUps uint64
}

func (s ReliabilityStats) String() string {
	return fmt.Sprintf("sends=%d retransmits=%d acks=%d/%d drops=%d dups=%d/%d giveups=%d",
		s.DataSends, s.Retransmits, s.AcksSent, s.AcksReceived, s.Drops,
		s.Duplicated, s.DupSuppressed, s.GiveUps)
}

// Reliability returns the reliable transport's counters (zero for other
// modes).
func (n *Network) Reliability() ReliabilityStats { return n.rstats }

// floodID names one message by its origin and the origin's sequence number.
type floodID struct {
	origin topo.SwitchID
	seq    uint64
}

// ackMsg acknowledges receipt of data message id by acker, addressed to the
// pending entry at the link peer that sent it.
type ackMsg struct {
	id    floodID
	acker topo.SwitchID
}

// pendKey identifies one tracked transmission at a sender: which message,
// to which neighbor.
type pendKey struct {
	id floodID
	to topo.SwitchID
}

// pendingTx is a transmission awaiting acknowledgement.
type pendingTx struct {
	msg      copyMsg
	from, to topo.SwitchID
	attempts int
	acked    bool
}

// sendReliable starts tracking and transmitting msg from `from` to the
// neighbor `to`. It is a no-op if the link is missing or administratively
// down, or if the same message is already in flight on this link.
func (n *Network) sendReliable(from, to topo.SwitchID, msg copyMsg) {
	l, ok := n.g.Link(from, to)
	if !ok || l.Down {
		return
	}
	key := pendKey{floodID{msg.Origin, msg.Seq}, to}
	if _, inFlight := n.pending[from][key]; inFlight {
		return
	}
	pt := &pendingTx{msg: msg, from: from, to: to}
	n.pending[from][key] = pt
	n.rstats.DataSends++
	n.transmit(pt, key)
}

// transmit performs one transmission attempt of pt and arms its
// retransmission timer.
func (n *Network) transmit(pt *pendingTx, key pendKey) {
	l, ok := n.g.Link(pt.from, pt.to)
	if !ok || l.Down {
		// The link went down under us (a real topology change, advertised
		// separately); retrying is pointless.
		delete(n.pending[pt.from], key)
		n.rstats.GiveUps++
		return
	}
	if pt.attempts > 0 {
		n.rstats.Retransmits++
	}
	attempt := pt.attempts
	pt.attempts++
	n.copies++
	delay := l.Delay + n.perHop
	if n.injector != nil {
		switch o := n.injector.Apply(pt.from, pt.to); {
		case o.Drop:
			n.rstats.Drops++
		default:
			n.transport[pt.to].Send(pt.msg, delay+o.Jitter)
			if o.Duplicate {
				n.rstats.Duplicated++
				n.transport[pt.to].Send(pt.msg, delay+o.DupJitter)
			}
		}
	} else {
		n.transport[pt.to].Send(pt.msg, delay)
	}
	n.k.Schedule(n.rtoFor(l, attempt), func() {
		if pt.acked {
			return
		}
		if pt.attempts > n.retryBudget {
			delete(n.pending[pt.from], key)
			n.rstats.GiveUps++
			return
		}
		n.transmit(pt, key)
	})
}

// rtoFor returns the retransmission timeout for the given attempt over l:
// one round trip (data out, ack back, each paying link delay plus per-hop
// processing) with exponential backoff. Injected jitter can exceed the
// margin and cause a spurious retransmission; that is safe (duplicates are
// suppressed and re-acked) and shows up honestly in the counters.
func (n *Network) rtoFor(l topo.Link, attempt int) sim.Time {
	if attempt > 16 {
		attempt = 16 // cap the shift; backoff is already ~65000× base
	}
	base := 2*(l.Delay+n.perHop) + n.perHop
	return base << uint(attempt)
}

// sendAck sends an acknowledgement for id from `from` back to `to` (the
// data sender). Acks traverse the same faulty link as data.
func (n *Network) sendAck(from, to topo.SwitchID, id floodID) {
	l, ok := n.g.Link(from, to)
	if !ok || l.Down {
		return
	}
	n.rstats.AcksSent++
	a := ackMsg{id: id, acker: from}
	delay := l.Delay + n.perHop
	if n.injector != nil {
		switch o := n.injector.Apply(from, to); {
		case o.Drop:
			n.rstats.Drops++
		default:
			n.transport[to].Send(a, delay+o.Jitter)
			if o.Duplicate {
				n.rstats.Duplicated++
				n.transport[to].Send(a, delay+o.DupJitter)
			}
		}
	} else {
		n.transport[to].Send(a, delay)
	}
}
