package rt

import (
	"errors"
	"sync/atomic"

	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
)

// This file is the node's data plane: originate (SendDataBatch) and relay
// (handleData) payload frames over the per-connection FIB compiled from the
// installed MC topologies. Both end in fanOut, the only loop that puts a
// payload frame on a link — which it does by staging the frame for its
// neighbour; a stage reaches the transport as one burst (flushStage).
//
// The steady-state forward path is allocation-free by construction (the
// root alloc gate pins it at 0 allocs/op, with the flight recorder and
// packet sampling enabled): the frame decodes into stack values, the table
// lookup is one atomic pointer load plus a map read, the relay patches
// From/hops/CRC into the received buffer in place, every outcome is counted
// exactly once in a plain atomic of a per-connection stripe (the metrics
// registry reads the same atomics at scrape time), and the flight recorder
// writes through a fixed-size seqlock ring. It runs on the transport receive
// goroutine and never takes the machine lock — installs swap the table
// under the hot path, they never block it.
//
// Deliberately NOT here: duplicate suppression. Duplicates during
// reconvergence (two switches briefly installed on different trees) are a
// headline metric of this reproduction, so the data plane forwards what the
// FIB says and the sinks count what arrives; the hop budget bounds the cost
// of any transient loop.

// DefaultDataHops is the hop budget stamped on originated payload frames —
// comfortably above any tree path in the fabrics this repo drives, small
// enough that a reconvergence loop dies quickly. The budget is the data
// plane's only loop guard while trees at different switches transiently
// disagree during reconvergence.
const DefaultDataHops = 64

// DataHandler receives payloads the data plane delivers to the co-resident
// application: the connection, the originating switch, its per-source data
// sequence number, and the payload bytes (valid only for the duration of
// the call — they alias a pooled receive buffer).
type DataHandler func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte)

// ErrNotSender is returned by SendData when the local switch is not
// entitled to originate on the connection (not a sending member of a
// symmetric/asymmetric MC).
var ErrNotSender = errors.New("rt: switch may not send on this connection")

// ErrNoRoute is returned by SendData when the switch has no forwarding
// state for the connection, or no route into its MC topology.
var ErrNoRoute = errors.New("rt: no route into the MC")

// fwdStripes is the stripe count of the data plane's counter array. Power
// of two so the conn→stripe map is a mask; 64 stripes × one cache line
// keeps counter contention negligible however many connections share the
// node while letting per-connection metrics read "their" stripe directly.
const fwdStripes = 64

// forwardCounters are one stripe of the data plane's statistics, and the
// only place a data-plane outcome is counted: ForwardStats, /healthz and
// the registry's dgmc_data_* and dgmc_conn_data_* series all read these
// atomics. Padded to a cache line so stripes do not false-share.
type forwardCounters struct {
	originated  atomic.Uint64
	forwarded   atomic.Uint64
	delivered   atomic.Uint64
	dropNoEntry atomic.Uint64
	dropNoRoute atomic.Uint64
	dropHops    atomic.Uint64
	dropLoop    atomic.Uint64
	_           [1]uint64 // pad to 64 bytes
}

// snapshot reads one stripe into a ForwardStats value.
func (c *forwardCounters) snapshot() ForwardStats {
	return ForwardStats{
		Originated:  c.originated.Load(),
		Forwarded:   c.forwarded.Load(),
		Delivered:   c.delivered.Load(),
		DropNoEntry: c.dropNoEntry.Load(),
		DropNoRoute: c.dropNoRoute.Load(),
		DropHops:    c.dropHops.Load(),
		DropLoop:    c.dropLoop.Load(),
	}
}

// forwardStripes is the striped counter set: connections map onto stripes
// by conn mod fwdStripes, so two connections can share a stripe (per-conn
// series are therefore stripe-accurate, exact when conns < 64) but the
// node-wide sums in ForwardStats are always exact.
type forwardStripes [fwdStripes]forwardCounters

// stripe returns the counter stripe for conn.
func (fs *forwardStripes) stripe(conn lsa.ConnID) *forwardCounters {
	return &fs[uint32(conn)&(fwdStripes-1)]
}

// ForwardStats is a snapshot of one node's data-plane counters.
type ForwardStats struct {
	// Originated counts payload frames this node sent into the network.
	Originated uint64 `json:"originated"`
	// Forwarded counts relay transmissions (one per link copy).
	Forwarded uint64 `json:"forwarded"`
	// Delivered counts payloads handed to the local application.
	Delivered uint64 `json:"delivered"`
	// DropNoEntry counts frames for connections with no FIB entry.
	DropNoEntry uint64 `json:"drop_no_entry"`
	// DropNoRoute counts frames stranded off-tree with no contact route.
	DropNoRoute uint64 `json:"drop_no_route"`
	// DropHops counts frames that exhausted their hop budget.
	DropHops uint64 `json:"drop_hops"`
	// DropLoop counts own frames that looped back.
	DropLoop uint64 `json:"drop_loop"`
}

// Drops returns the sum of all drop reasons.
func (s ForwardStats) Drops() uint64 {
	return s.DropNoEntry + s.DropNoRoute + s.DropHops + s.DropLoop
}

// add accumulates o into s.
func (s *ForwardStats) add(o ForwardStats) {
	s.Originated += o.Originated
	s.Forwarded += o.Forwarded
	s.Delivered += o.Delivered
	s.DropNoEntry += o.DropNoEntry
	s.DropNoRoute += o.DropNoRoute
	s.DropHops += o.DropHops
	s.DropLoop += o.DropLoop
}

// ForwardStats returns a snapshot of the node's data-plane counters: the
// sum over all stripes. Safe concurrent with live forwarding and FIB swaps
// (each field is an atomic load; the total is not a single atomic cut, same
// as any multi-counter snapshot).
func (n *Node) ForwardStats() ForwardStats {
	var total ForwardStats
	for i := range n.fwd {
		total.add(n.fwd[i].snapshot())
	}
	return total
}

// ConnForwardStats returns the counter stripe conn maps to. Exact for the
// connection when fewer than fwdStripes connections are live; an aggregate
// of the stripe's connections otherwise.
func (n *Node) ConnForwardStats(conn lsa.ConnID) ForwardStats {
	return n.fwd.stripe(conn).snapshot()
}

// FIB returns the node's current forwarding table (never nil after NewNode;
// read-only).
func (n *Node) FIB() *fib.Table { return n.fib.Load() }

// FIBCompiles counts table recompilations since boot.
func (n *Node) FIBCompiles() uint64 { return n.fibCompiles.Load() }

// recompileFIBLocked compiles a table from the machine's forwarding state
// and swaps it in atomically: from scratch when all is set, and otherwise
// the current table with the entries of the changed connections compiled
// anew. Only those entries are compiled, but fib.NewBuilderFrom copies
// every other entry of the current table into the new one, so an install
// still costs time and memory in proportion to the live connections
// (BenchmarkFIBInstall). Must be called with n.mu held (or before the
// goroutine cluster starts).
func (n *Node) recompileFIBLocked(all bool, changed []lsa.ConnID) {
	image := n.machine.Unicast().Image()
	var b *fib.Builder
	if all {
		b = fib.NewBuilder(n.id, image)
		n.machine.ForwardingState(b.Add)
	} else {
		b = fib.NewBuilderFrom(n.id, image, n.fib.Load(), changed)
		for _, conn := range changed {
			n.machine.ConnForwardingState(conn, b.Add)
		}
	}
	t := b.Build()
	n.fib.Store(t)
	compiles := n.fibCompiles.Add(1)
	n.flight.Record(obs.RecFIBSwap, 0, uint32(n.id), compiles, uint64(t.Size()))
	if n.obs.reg == nil {
		return
	}
	if all {
		changed = t.Conns()
	}
	for _, conn := range changed {
		if t.Lookup(conn) != nil {
			n.obs.connForwardSeries(n, conn)
		}
	}
}

// recordData writes one data-plane record: always into the event ring, and
// into the sampled-hop ring too when the packet's sequence selects it. Both
// rings are nil-safe and allocation-free, so this inlines to two branches
// when the recorder is disabled.
func (n *Node) recordData(kind obs.RecKind, conn lsa.ConnID, src topo.SwitchID, seq uint64, from topo.SwitchID) {
	n.flight.Record(kind, uint32(conn), uint32(src), seq, uint64(from))
	if obs.Sampled(seq, n.sampleEvery) {
		n.hopRec.Record(kind, uint32(conn), uint32(src), seq, uint64(from))
	}
}

// SendData originates one payload on conn — a batch of one — and returns
// the frame's data sequence number.
func (n *Node) SendData(conn lsa.ConnID, payload []byte) (uint64, error) {
	seq, _, err := n.SendDataBatch(conn, payload, 1)
	return seq, err
}

// SendDataBatch originates count copies of payload on conn, fanning each out
// exactly as a forwarded frame would: over the tree if this switch is on it,
// or toward the contact node of a receiver-only MC. It reserves one
// contiguous block of data sequence numbers and returns its first value.
// The frame is encoded once; each subsequent packet restamps the sequence
// (and CRC) in place before fanning out, so the per-packet cost is the
// patch plus one staged copy per link — the setup (entitlement check, FIB
// lookup, buffer rental, header+payload encode) is paid once per batch, and
// each link takes the batch in bursts of up to maxBurst frames. Per-link
// send errors are counted and traced but do not fail the packet; the
// entitlement and route checks happen once up front, which is the batch's
// semantics: one claim, count packets. Like handleData it consults only the
// atomic FIB — it never takes the machine lock.
func (n *Node) SendDataBatch(conn lsa.ConnID, payload []byte, count int) (uint64, int, error) {
	if count <= 0 {
		return 0, 0, nil
	}
	select {
	case <-n.closed:
		return 0, 0, ErrClosed
	default:
	}
	e := n.fib.Load().Lookup(conn)
	if e == nil {
		return 0, 0, ErrNoRoute
	}
	if !e.CanSend {
		return 0, 0, ErrNotSender
	}
	var contact [1]topo.SwitchID
	links, ok := outLinks(e, &contact)
	if !ok {
		return 0, 0, ErrNoRoute
	}
	first := n.dataSeq.Add(uint64(count)) - uint64(count) + 1
	d := lsa.DataFrame{Conn: conn, Src: n.id, Seq: first, Hops: DefaultDataHops, Payload: payload}
	buf := lsa.AppendDataFrame(getBuf(64+len(payload)), &d, n.id)
	// Summed once for the batch: each restamp below re-seals the trailer
	// from this state instead of re-reading the payload.
	sum := lsa.SumBody(buf)
	// The caller's goroutine stages for itself: it borrows a stage set for
	// the call, so concurrent originators share nothing and a call allocates
	// nothing once the set has grown to the switch's links.
	tx := n.origTx.Get().(*txStages)
	var sent int
	var err error
	for ; sent < count; sent++ {
		seq := first + uint64(sent)
		if sent > 0 {
			if err = sum.PatchDataSeq(buf, seq); err != nil {
				break
			}
		}
		// Recorded before the sends, so no downstream hop record of this
		// packet can carry an earlier timestamp than its origination.
		n.recordData(obs.RecOriginate, conn, n.id, seq, n.id)
		// Copies on every link: buf is restamped for the next packet.
		n.fanOut(tx, links, noSkip, -1, buf, nil)
	}
	n.flush(tx)
	n.origTx.Put(tx)
	putBuf(buf)
	n.fwd.stripe(conn).originated.Add(uint64(sent))
	return first, sent, err
}

// outLinks returns the links a frame at entry e leaves on: the tree fan-out
// once the frame has entered the MC, else the single hop toward the contact
// node (contact backs that one-element slice). ok is false when e offers
// neither — there is no route into the MC from here.
func outLinks(e *fib.Entry, contact *[1]topo.SwitchID) (links []topo.SwitchID, ok bool) {
	if e.Entered() {
		return e.Neighbors, true
	}
	if e.ContactNext == topo.NoSwitch {
		return nil, false
	}
	contact[0] = e.ContactNext
	return contact[:], true
}

// maxBurst caps a stage: a neighbour's staged frames are flushed when they
// reach it, so a long receive batch or a large SendDataBatch feeds the next
// switch while it is still being worked through instead of all at its end.
const maxBurst = 32

// txStage is what one goroutine has staged for one neighbour: the frames, in
// send order, each owned by the stage until it is flushed.
type txStage struct {
	to   topo.SwitchID
	bufs [][]byte
	// relays groups the staged relay frames by the counter that counts them
	// as forwarded once the transport has accepted the burst. Originated
	// frames are in no group.
	relays []relayRun
}

// linkCredit counts accepted relay copies: a stripe's Forwarded for payload
// frames, the node's forwarded-floods counter for LSAs.
type linkCredit interface{ Add(n uint64) }

// Add makes a stripe the linkCredit of the payload frames it counts.
func (c *forwardCounters) Add(n uint64) { c.forwarded.Add(n) }

// relayRun is a run of consecutively staged relay frames of one credit.
type relayRun struct {
	to linkCredit
	n  uint64
}

// txStages is one goroutine's send stages, one per neighbour it has sent
// to, found by a scan: a switch has a handful of links. Only the owning
// goroutine touches it — the receive loop has one for relays, the machine
// lock guards one for originated floods, and SendDataBatch borrows one per
// call — so staging takes no lock and shares no cache line.
type txStages struct {
	what   string // names the traffic in send-error traces
	stages []txStage
}

// stage returns the stage for neighbour to, adding it on first use.
func (tx *txStages) stage(to topo.SwitchID) *txStage {
	for i := range tx.stages {
		if tx.stages[i].to == to {
			return &tx.stages[i]
		}
	}
	tx.stages = append(tx.stages, txStage{to: to})
	return &tx.stages[len(tx.stages)-1]
}

// noSkip is fanOut's skip set for a frame that goes out on every link.
var noSkip = [2]topo.SwitchID{topo.NoSwitch, topo.NoSwitch}

// lastLink returns the index of the last switch of links not in skip — the
// link a relay lets take the received buffer itself — or -1 when every link
// is skipped.
func lastLink(links []topo.SwitchID, skip [2]topo.SwitchID) int {
	for i := len(links) - 1; i >= 0; i-- {
		if links[i] != skip[0] && links[i] != skip[1] {
			return i
		}
	}
	return -1
}

// fanOut is the one link-send loop, for payload frames and LSA floods,
// originated and relayed alike: the frame in buf is staged for every switch
// of links except the two of skip. Each link gets a pooled copy — except
// links[moveAt], which takes buf itself, after which the caller must not
// touch buf again; moveAt < 0 copies everywhere and leaves buf with the
// caller. credit, when set, counts each accepted link copy of a relayed
// frame. Nothing is on a link until the stage is flushed: at maxBurst frames
// here, otherwise by the caller, which must flush tx before it lets go of
// whatever made it send.
func (n *Node) fanOut(tx *txStages, links []topo.SwitchID, skip [2]topo.SwitchID, moveAt int, buf []byte, credit linkCredit) {
	for i, nb := range links {
		if nb == skip[0] || nb == skip[1] {
			continue
		}
		b := buf
		if i != moveAt {
			b = append(getBuf(len(buf)), buf...)
		}
		s := tx.stage(nb)
		s.bufs = append(s.bufs, b)
		if credit != nil {
			if k := len(s.relays); k > 0 && s.relays[k-1].to == credit {
				s.relays[k-1].n++
			} else {
				s.relays = append(s.relays, relayRun{to: credit, n: 1})
			}
		}
		if len(s.bufs) >= maxBurst {
			n.flushStage(tx.what, s)
		}
	}
}

// flush sends everything tx has staged, one burst per neighbour.
func (n *Node) flush(tx *txStages) {
	for i := range tx.stages {
		if s := &tx.stages[i]; len(s.bufs) > 0 {
			n.flushStage(tx.what, s)
		}
	}
}

// flushStage hands one neighbour's staged frames to the transport as a
// single burst and empties the stage. Relay frames count as forwarded only
// here, once the transport has accepted the burst: a refused burst (closed
// or unknown destination) counts as one send failure and forwards nothing.
func (n *Node) flushStage(what string, s *txStage) {
	n.batching.txBursts.Add(1)
	n.batching.txFrames.Add(uint64(len(s.bufs)))
	if err := n.tr.SendOwnedBatch(s.to, s.bufs); err != nil {
		n.sendFailed(what, s.to, err)
	} else {
		for _, r := range s.relays {
			r.to.Add(r.n)
		}
	}
	clear(s.bufs) // the transport owns the frames now
	s.bufs = s.bufs[:0]
	s.relays = s.relays[:0]
}

// handleData is the steady-state forward path: deliver locally if this
// switch is a receiving member, then relay per the FIB entry — tree fan-out
// (minus the arrival link) on-tree, one contact hop off-tree. Runs on the
// transport receive goroutine, staging into its tx; zero allocations, no
// locks.
//
// consumed reports that buf moved into a stage: the relay's last outgoing
// link takes the already-patched frame itself instead of a copy. The local
// delivery callback runs before the move, so d.Payload (which aliases buf)
// is safe for the handler's duration, and nothing after the move reads buf.
func (n *Node) handleData(tx *txStages, buf []byte, f *lsa.Frame) (consumed bool) {
	var d lsa.DataFrame
	if f.Origin == n.id {
		// Our own frame came back: a transient loop while trees disagree, or
		// a stale frame from a pre-crash incarnation. Either way it stops
		// here — the origin already fanned it out once. Decode is best-effort
		// (loops are anomalies, not the steady state) so the drop lands on
		// the right stripe and the flight record carries the connection.
		conn := lsa.ConnID(0)
		if err := lsa.DecodeDataInto(&d, f); err == nil {
			conn = d.Conn
		}
		n.fwd.stripe(conn).dropLoop.Add(1)
		n.recordData(obs.RecDropLoop, conn, f.Origin, f.Seq, f.From)
		return false
	}
	if err := lsa.DecodeDataInto(&d, f); err != nil {
		n.decodeErrs.Add(1)
		return false
	}
	st := n.fwd.stripe(d.Conn)
	e := n.fib.Load().Lookup(d.Conn)
	if e == nil {
		st.dropNoEntry.Add(1)
		n.recordData(obs.RecDropNoEntry, d.Conn, d.Src, d.Seq, f.From)
		return false
	}
	if e.Local {
		st.delivered.Add(1)
		n.recordData(obs.RecDeliver, d.Conn, d.Src, d.Seq, f.From)
		if h := n.dataHandler; h != nil {
			h(d.Conn, d.Src, d.Seq, d.Payload)
		}
	}
	var contact [1]topo.SwitchID
	links, ok := outLinks(e, &contact)
	if !ok {
		st.dropNoRoute.Add(1)
		n.recordData(obs.RecDropNoRoute, d.Conn, d.Src, d.Seq, f.From)
		return false
	}
	// The tree fan-out leaves out the arrival link; a contact hop goes where
	// the FIB points, whichever link the frame came in on.
	skip := noSkip
	if e.Entered() {
		skip[0] = f.From
	}
	// Leaf check first: exhausting the hop budget at a switch with nowhere
	// further to forward is normal termination, not a drop.
	last := lastLink(links, skip)
	if last < 0 {
		return false
	}
	if d.Hops == 0 {
		st.dropHops.Add(1)
		n.recordData(obs.RecDropHops, d.Conn, d.Src, d.Seq, f.From)
		return false
	}
	// The decode that verified buf left the checksum state at its trailer.
	if err := f.BodySum().PatchDataForward(buf, n.id, d.Hops-1); err != nil {
		return false
	}
	// The last link takes the patched frame itself; the others get copies.
	// The forward is recorded ahead of the burst that carries the frame, so
	// it predates every downstream record of the packet.
	n.recordData(obs.RecForward, d.Conn, d.Src, d.Seq, f.From)
	n.fanOut(tx, links, skip, last, buf, st)
	return true
}
