// Package flood models the flooding of link-state advertisements through
// the simulated network. Flooding is the only communication primitive the
// D-GMC protocol needs: every advertisement reaches every (reachable)
// switch, with per-switch arrival times determined by link delays plus a
// per-hop store-and-forward cost.
//
// Four delivery modes are provided:
//
//   - Direct computes each switch's arrival time analytically (a Dijkstra
//     over delay+perHop weights) and schedules one delivery event per
//     switch. This is what standard first-copy-wins flooding produces when
//     forwarding is immediate, at a fraction of the simulator cost.
//   - HopByHop gives every switch a forwarder that takes each copy as the
//     kernel delivers it, and accepts and relays each flood by the rule
//     internal/rt runs too (relay.go). It exists to validate the Direct
//     model and to exercise the simulator under realistic message loads.
//   - TreeBased forwards only along a shortest-path tree (see below).
//   - Reliable is HopByHop hardened for lossy fabrics: every link
//     transmission is acknowledged and retransmitted with exponential
//     backoff up to a bounded retry budget, so the flood survives the
//     message loss, duplication, jitter, and link flaps injected by an
//     internal/faults plan (see reliable.go).
package flood

import (
	"fmt"
	"sort"
	"time"

	"dgmc/internal/faults"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// Mode selects the delivery implementation.
type Mode uint8

const (
	// Direct schedules analytically computed arrivals (default).
	Direct Mode = iota + 1
	// HopByHop forwards copies switch-to-switch, each switch relaying a
	// copy as the kernel delivers it, with duplicate suppression — classic
	// OSPF-style flooding (≈2·|links| transmissions per flood).
	HopByHop
	// TreeBased forwards copies only along a shortest-path tree rooted at
	// the flood's origin, as in the authors' companion "switch-aided
	// flooding" work: identical arrival times to HopByHop, but exactly
	// n−1 transmissions per flood.
	TreeBased
	// Reliable is HopByHop with per-link acknowledgements and bounded
	// retransmission, for use over a faulty fabric. With no faults injected
	// it produces exactly HopByHop's arrivals with zero retransmissions.
	Reliable
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Direct:
		return "direct"
	case HopByHop:
		return "hop-by-hop"
	case TreeBased:
		return "tree-based"
	case Reliable:
		return "reliable"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Delivery is what client mailboxes receive for each flooded advertisement.
type Delivery struct {
	// Origin is the switch that initiated the flood.
	Origin topo.SwitchID
	// Seq is the flood's sequence number at its origin (for tracing).
	Seq uint64
	// Payload is the flooded advertisement.
	Payload any
}

// Unicast is what client mailboxes receive for a point-to-point message
// sent between neighbors with Network.Unicast (the resync exchanges of
// internal/core ride on this).
type Unicast struct {
	From, To topo.SwitchID
	Payload  any
}

// copyMsg is the inter-forwarder message in HopByHop and Reliable modes.
type copyMsg struct {
	Delivery
	from topo.SwitchID
	// unicast marks a point-to-point message for dst: it is acknowledged
	// and delivered but never relayed.
	unicast bool
	dst     topo.SwitchID
}

// Network is the flooding fabric over a graph inside one kernel. Create it
// before Run; switches obtain their inbox via Mailbox.
type Network struct {
	k      *sim.Kernel
	g      *topo.Graph
	perHop time.Duration
	mode   Mode

	inboxes []*sim.Mailbox // client-visible, one per switch

	relays []*Relay // per switch: numbers floods, accepts copies (hop-by-hop)

	// HopByHop/Reliable plumbing.
	transport []*sim.Mailbox

	// nbrs[s] caches s's neighbors in ascending order with their link
	// indices, so the per-copy forwarding loop touches no maps and
	// allocates nothing; link state (Down) is re-read through the index at
	// send time. sssp is the reusable scratch behind arrivalDelays.
	nbrs [][]nbLink
	sssp topo.SSSPScratch

	// Reliable plumbing.
	injector    *faults.Injector
	retryBudget int
	pending     []map[pendKey]*pendingTx
	rstats      ReliabilityStats

	floodings uint64
	copies    uint64
}

// nbLink is one cached adjacency entry: the neighbor and the index of the
// connecting link (resolved via topo.Graph.LinkAt at use time, so link
// flaps are observed without a map lookup per message).
type nbLink struct {
	to  topo.SwitchID
	idx int
}

// Option configures a Network beyond the required parameters.
type Option func(*Network)

// WithFaults injects a fault plan into the fabric. Requires Reliable mode:
// the unreliable modes assume a perfect network by construction.
func WithFaults(in *faults.Injector) Option {
	return func(n *Network) { n.injector = in }
}

// WithRetryBudget bounds how many times a Reliable transmission is
// retransmitted before the sender gives up (default 8). Zero means no
// retransmission at all — plain lossy flooding, useful as an experimental
// control.
func WithRetryBudget(budget int) Option {
	return func(n *Network) { n.retryBudget = budget }
}

// defaultRetryBudget bounds retransmissions per (message, link); at a drop
// rate of 0.2, eight retries leave ~5e-7 residual loss per transmission,
// which the resync layer above mops up.
const defaultRetryBudget = 8

// New builds a flooding network. perHop is the per-hop LSA processing and
// transmission time added on top of each link's propagation delay (the
// paper's "per-hop LSA transmission time").
func New(k *sim.Kernel, g *topo.Graph, perHop time.Duration, mode Mode, opts ...Option) (*Network, error) {
	if perHop < 0 {
		return nil, fmt.Errorf("flood: negative per-hop time %v", perHop)
	}
	if mode != Direct && mode != HopByHop && mode != TreeBased && mode != Reliable {
		return nil, fmt.Errorf("flood: invalid mode %d", mode)
	}
	n := &Network{k: k, g: g, perHop: perHop, mode: mode, retryBudget: defaultRetryBudget}
	for _, o := range opts {
		o(n)
	}
	if n.injector != nil && mode != Reliable {
		return nil, fmt.Errorf("flood: fault injection requires Reliable mode, got %s", mode)
	}
	if n.retryBudget < 0 {
		return nil, fmt.Errorf("flood: negative retry budget %d", n.retryBudget)
	}
	n.inboxes = make([]*sim.Mailbox, g.NumSwitches())
	n.relays = make([]*Relay, g.NumSwitches())
	for i := range n.inboxes {
		n.inboxes[i] = sim.NewMailbox(k)
		n.relays[i] = NewRelay(topo.SwitchID(i), g.NumSwitches(), 0)
	}
	// Cache the full adjacency (down links included — flaps are re-checked
	// through the link index at send time), sorted by neighbor for the same
	// deterministic iteration order g.Neighbors gives.
	n.nbrs = make([][]nbLink, g.NumSwitches())
	for _, l := range g.Links() {
		idx, ok := g.LinkIndex(l.A, l.B)
		if !ok {
			continue
		}
		n.nbrs[l.A] = append(n.nbrs[l.A], nbLink{to: l.B, idx: idx})
		n.nbrs[l.B] = append(n.nbrs[l.B], nbLink{to: l.A, idx: idx})
	}
	for _, row := range n.nbrs {
		sort.Slice(row, func(i, j int) bool { return row[i].to < row[j].to })
	}
	if mode == HopByHop || mode == Reliable {
		n.transport = make([]*sim.Mailbox, g.NumSwitches())
		if mode == Reliable {
			n.pending = make([]map[pendKey]*pendingTx, g.NumSwitches())
		}
		for i := range n.transport {
			n.transport[i] = sim.NewMailbox(k)
			if mode == Reliable {
				n.pending[i] = make(map[pendKey]*pendingTx)
			}
			s := topo.SwitchID(i)
			n.transport[i].OnDeliver(func() { n.forward(s) })
		}
	}
	return n, nil
}

// Mailbox returns the inbox where switch s receives flooded advertisements.
func (n *Network) Mailbox(s topo.SwitchID) *sim.Mailbox { return n.inboxes[s] }

// Graph returns the underlying network graph.
func (n *Network) Graph() *topo.Graph { return n.g }

// PerHop returns the per-hop forwarding cost.
func (n *Network) PerHop() time.Duration { return n.perHop }

// Floodings returns how many flooding operations have been initiated — the
// paper's "flooding operations" communication-overhead metric.
func (n *Network) Floodings() uint64 { return n.floodings }

// Copies returns the total number of point-to-point transmissions used.
// HopByHop counts actual sends; Direct charges what classic flooding would
// transmit (every switch relays to all neighbours but the inbound one), one
// more than HopByHop for each neighbour of the origin that first hears the
// flood from another switch, since RelaySkip spares the origin that copy;
// TreeBased charges one transmission per delivered switch (the
// switch-aided optimum).
func (n *Network) Copies() uint64 { return n.copies }

// ResetCounters zeroes the flooding and copy counters.
func (n *Network) ResetCounters() { n.floodings, n.copies = 0, 0 }

// Flood initiates a flooding operation from origin carrying payload. The
// advertisement is delivered to every switch reachable from origin except
// origin itself (the originator already knows its own advertisement, as in
// OSPF).
func (n *Network) Flood(origin topo.SwitchID, payload any) {
	n.floodings++
	d := Delivery{Origin: origin, Seq: n.relays[origin].Next(), Payload: payload}
	switch n.mode {
	case HopByHop, Reliable:
		n.relay(origin, origin, d)
	case TreeBased:
		for dst, delay := range n.arrivalDelays(origin) {
			if topo.SwitchID(dst) == origin || delay < 0 {
				continue
			}
			n.copies++ // one send per tree edge: the switch-aided optimum
			n.inboxes[dst].Send(d, delay)
		}
	default: // Direct: same arrivals, classic-flooding transmission cost
		n.copies += uint64(n.g.Degree(origin))
		for dst, delay := range n.arrivalDelays(origin) {
			if topo.SwitchID(dst) == origin || delay < 0 {
				continue
			}
			if deg := n.g.Degree(topo.SwitchID(dst)); deg > 1 {
				n.copies += uint64(deg - 1)
			}
			n.inboxes[dst].Send(d, delay)
		}
	}
}

// Unicast sends payload point-to-point from switch `from` to its direct
// neighbor `to`; the receiver's mailbox gets a Unicast envelope. Over a
// Reliable fabric the message is acknowledged and retransmitted like any
// flood copy; in the other modes it is delivered after one link delay.
// Messages to non-neighbors or over administratively-down links are
// silently discarded (callers retry at the protocol level, exactly as they
// must for injected loss).
func (n *Network) Unicast(from, to topo.SwitchID, payload any) {
	l, ok := n.g.Link(from, to)
	if !ok || l.Down {
		return
	}
	u := Unicast{From: from, To: to, Payload: payload}
	if n.mode == Reliable {
		d := Delivery{Origin: from, Seq: n.relays[from].Next(), Payload: payload}
		n.sendReliable(from, to, copyMsg{Delivery: d, from: from, unicast: true, dst: to})
		return
	}
	n.inboxes[to].Send(u, l.Delay+n.perHop)
}

// arrivalDelays computes, for every switch, the earliest flooding arrival
// time from origin: a shortest path where each hop costs linkDelay+perHop.
// Unreachable switches get -1. The returned slice aliases the network's
// reusable scratch and is valid until the next arrivalDelays call.
func (n *Network) arrivalDelays(origin topo.SwitchID) []time.Duration {
	n.sssp.Reset(n.g.NumSwitches())
	n.sssp.Seed(origin)
	n.g.RunSSSP(&n.sssp, n.perHop)
	dist := n.sssp.Dist
	for i := range dist {
		if dist[i] == topo.Unreachable {
			dist[i] = -1
		}
	}
	return dist
}

// forward is the per-switch transport receiver in HopByHop and Reliable
// modes: a flood's first copy is delivered and relayed, later ones dropped.
// Reliable re-acks a dropped copy (the first ack may have been lost) and acks
// after the data path, so a fault-free run reproduces HopByHop's schedule.
func (n *Network) forward(self topo.SwitchID) {
	reliable := n.mode == Reliable
	mb := n.transport[self]
	for raw, ok := mb.TryRecv(); ok; raw, ok = mb.TryRecv() {
		switch msg := raw.(type) {
		case ackMsg:
			key := pendKey{msg.id, msg.acker}
			if pt, ok := n.pending[self][key]; ok {
				pt.acked = true
				delete(n.pending[self], key)
				n.rstats.AcksReceived++
			}
		case copyMsg:
			id := floodID{msg.Origin, msg.Seq}
			if !n.relays[self].Accept(msg.Origin, msg.Seq) {
				if reliable {
					n.rstats.DupSuppressed++
					n.sendAck(self, msg.from, id)
				}
				continue
			}
			switch {
			case !msg.unicast:
				n.inboxes[self].Send(msg.Delivery, 0)
				n.relay(self, msg.from, msg.Delivery)
			case msg.dst == self:
				n.inboxes[self].Send(Unicast{From: msg.Origin, To: msg.dst, Payload: msg.Payload}, 0)
			}
			if reliable {
				n.sendAck(self, msg.from, id)
			}
		}
	}
}

// relay sends d, which reached self from `from`, to every up neighbour but
// the two RelaySkip names — acknowledged and retransmitted in Reliable mode.
func (n *Network) relay(self, from topo.SwitchID, d Delivery) {
	skip := RelaySkip(from, d.Origin)
	msg := copyMsg{Delivery: d, from: self}
	for _, e := range n.nbrs[self] {
		l := n.g.LinkAt(e.idx)
		if e.to == skip[0] || e.to == skip[1] || l.Down {
			continue
		}
		if n.mode == Reliable {
			n.sendReliable(self, e.to, msg)
			continue
		}
		n.copies++
		n.transport[e.to].Send(msg, l.Delay+n.perHop)
	}
}

// FloodTime returns Tf for this network: the worst-case time for a flood to
// reach every switch, including per-hop costs.
func (n *Network) FloodTime() (time.Duration, error) {
	var worst time.Duration
	for s := 0; s < n.g.NumSwitches(); s++ {
		for _, d := range n.arrivalDelays(topo.SwitchID(s)) {
			if d < 0 {
				return 0, topo.ErrDisconnected
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}
