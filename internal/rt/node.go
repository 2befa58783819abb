package rt

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// NodeConfig configures one live switch.
type NodeConfig struct {
	// ID is the switch's network ID in [0, Graph.NumSwitches()).
	ID topo.SwitchID
	// Graph is the configured fabric topology; the node's neighbor set and
	// its protocol machine's initial image both come from it. Required.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH).
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold enables §3.5 re-optimization (zero disables).
	ReoptimizeThreshold float64
	// ResyncTimeout enables gap recovery with the given wall-clock timeout;
	// zero disables. Mandatory in practice over lossy transports (UDP).
	ResyncTimeout time.Duration
	// Tracer, when set, receives structured protocol trace entries (for
	// span collection); it must be safe for concurrent use. It is called
	// with the machine lock held, on whichever goroutine steps the machine —
	// for received LSAs that is the transport receive goroutine, so a tracer
	// that blocks stalls this switch's data plane too.
	Tracer core.Tracer
	// Registry, when set, receives the node's runtime metrics (counters,
	// gauges, histograms, labeled per switch). nil disables metrics with
	// near-zero overhead.
	Registry *obs.Registry
	// DataHandler, when set, receives every payload delivered to this
	// switch's co-resident application by the data plane (the switch is a
	// receiving member of conn). It is called from the transport receive
	// goroutine and must not block or retain payload, which aliases a pooled
	// receive buffer valid only for the duration of the call. It runs
	// outside the machine lock, so it may call Join or Leave.
	DataHandler DataHandler
	// FlightRecords, when positive, enables the node's flight recorder: a
	// lock-free, allocation-free ring holding the last N data/control
	// events (forwards, the drop taxonomy, FIB swaps, LSA batches, resync
	// firings, reconciles, rejoins), snapshotted via FlightDoc for the
	// /flightrec admin endpoint. Rounded up to a power of two, min 16.
	FlightRecords int
	// SampleEvery, when positive (and FlightRecords is set), enables
	// 1-in-N packet path sampling: every data frame whose per-source
	// sequence is a multiple of SampleEvery gets a per-hop trace record in
	// a second ring of the same size, which the offline reconstructor
	// (obs.ReconstructPaths) joins into hop-by-hop path reports. The
	// decision is a pure function of the sequence number every frame
	// already carries, so all hops sample the same packets with no extra
	// wire bits.
	SampleEvery int
	// Epoch is the node's restart epoch (zero for a first boot). It
	// namespaces the node's flood sequence numbers — seq = epoch<<48 |
	// counter — so frames originated by a previous incarnation can never
	// collide with, or be mistaken for, frames from this one: receivers'
	// duplicate-suppression windows slide forward to the new epoch on first
	// contact and then discard any stale pre-crash frame still in flight.
	Epoch uint64
	// Restore, when set, boots the node from a snapshot of a previous
	// incarnation's protocol state instead of a blank machine. The snapshot
	// must be for the same switch ID. Pair with a bumped Epoch.
	Restore *NodeSnapshot
}

// Node is one live switch: a core.Machine guarded by a mutex, driven by the
// one goroutine NewNode starts — a transport receive loop that decodes,
// duplicate-suppresses and re-floods each received batch, then runs
// ReceiveLSA on the batch's messages — by wall-clock resync timers, and by
// the callers of Inject, which run EventHandler themselves.
type Node struct {
	id        topo.SwitchID
	epoch     uint64
	tr        Transport
	neighbors []topo.SwitchID
	tracer    core.Tracer

	// reg is the registry the node's series are exported to (nil disables
	// metrics); connSeries, guarded by mu, holds the connections whose
	// series recompileFIBLocked has registered. batchDur and eventDur time
	// each LSA batch and local event with the machine lock held; they are
	// nil without a registry, which keeps their time.Now pairs off.
	reg                *obs.Registry
	connSeries         map[lsa.ConnID]struct{}
	batchDur, eventDur *obs.Histogram

	// succ points to the node that replaced this one after a crash–restart.
	// Scrape closures registered by the first incarnation follow the chain
	// (see registerFuncs), so a shared registry keeps reporting the live
	// node's counters instead of a corpse's.
	succ atomic.Pointer[Node]

	// mu serializes all access to machine (it is not concurrency-safe).
	// Every machine call goes through step, which carries out the call's
	// effects before it releases mu.
	mu      sync.Mutex
	machine *core.Machine

	// fib is the data plane's forwarding table, recompiled from machine
	// state on every forwarding change and swapped atomically — the forward
	// hot path (handleData/SendData) reads it without taking mu.
	fib         atomic.Pointer[fib.Table]
	fibCompiles atomic.Uint64
	fibSwaps    atomic.Uint64
	// fibPatch is recompileFIBLocked's reusable staging; guarded by mu.
	fibPatch    fib.Patch
	dataHandler DataHandler
	dataSeq     atomic.Uint64
	fwd         forwardStripes
	// origTx lends SendDataBatch callers a stage set (*txStages) for the
	// call; floodTx stages originated floods and is guarded by mu, which
	// every step holds.
	origTx   sync.Pool
	floodTx  txStages
	batching batchCounters
	ctl      ctlCounters
	mcLSAs   mcLSAStripes

	// flight is the event ring ("black box"); hopRec the sampled per-hop
	// trace ring, kept separate so bursts of ordinary events cannot evict
	// the sparse sampled-path evidence. Both nil when disabled — every
	// Record call is nil-safe, so the hot path pays one branch each.
	flight      *obs.FlightRecorder
	hopRec      *obs.FlightRecorder
	sampleEvery int

	// relay numbers this node's floods and unicasts and accepts the first
	// copy of each flood from another of the graph's switches; relayMu
	// serializes the receive loop's Accept and the Next of whichever
	// goroutine is stepping the machine.
	switches int
	relayMu  sync.Mutex
	relay    *flood.Relay

	resyncAfter time.Duration

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}

	// busy counts in-flight protocol handlers; activity counts completed
	// units of work (frames handled and the messages they carried, credited
	// per received batch; events handled), each credited before the cover
	// of the work that did it — busy or the fabric's in-flight count — is
	// dropped. Cluster.quiescent reads them all.
	busy       atomic.Int64
	activity   atomic.Uint64
	decodeErrs atomic.Uint64

	// relayLabels and lsaLabels carry the receive loop's profiler labels,
	// switch=<id> with work=relay or work=lsa: the loop runs under the
	// first and switches to the second around its machine step. Built
	// once, so a batch allocates nothing for them.
	relayLabels, lsaLabels context.Context

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewNode builds the node, binds it to tr, and starts its receive loop.
func NewNode(cfg NodeConfig, tr Transport) (*Node, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("rt: NodeConfig.Graph is required")
	}
	if tr == nil {
		return nil, fmt.Errorf("rt: nil Transport")
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = route.SPH{}
	}
	if cfg.Restore != nil && cfg.Restore.id != cfg.ID {
		return nil, fmt.Errorf("rt: snapshot of switch %d cannot restore switch %d", cfg.Restore.id, cfg.ID)
	}
	n := &Node{
		id:          cfg.ID,
		epoch:       cfg.Epoch,
		tr:          tr,
		neighbors:   cfg.Graph.Neighbors(cfg.ID),
		switches:    cfg.Graph.NumSwitches(),
		relay:       flood.NewRelay(cfg.ID, cfg.Graph.NumSwitches(), cfg.Epoch),
		tracer:      cfg.Tracer,
		reg:         cfg.Registry,
		dataHandler: cfg.DataHandler,
		resyncAfter: cfg.ResyncTimeout,
		timers:      make(map[*time.Timer]struct{}),
		closed:      make(chan struct{}),
		origTx:      sync.Pool{New: func() any { return new(txStages) }},
	}
	sw := strconv.Itoa(int(cfg.ID))
	n.relayLabels = pprof.WithLabels(context.Background(), pprof.Labels("switch", sw, "work", "relay"))
	n.lsaLabels = pprof.WithLabels(context.Background(), pprof.Labels("switch", sw, "work", "lsa"))
	if cfg.FlightRecords > 0 {
		n.flight = obs.NewFlightRecorder(cfg.FlightRecords)
		if cfg.SampleEvery > 0 {
			n.hopRec = obs.NewFlightRecorder(cfg.FlightRecords)
			n.sampleEvery = cfg.SampleEvery
		}
	}
	// Data frames are numbered in their epoch window as floods are.
	n.dataSeq.Store(cfg.Epoch << 48)
	if cfg.Restore != nil {
		if err := cfg.Restore.verify(); err != nil {
			return nil, err
		}
		// Adopt a copy, leaving the snapshot reusable.
		n.machine = cfg.Restore.machine.Clone()
	} else {
		m, err := core.NewMachine(core.MachineConfig{
			ID:                  cfg.ID,
			Graph:               cfg.Graph,
			Algorithm:           cfg.Algorithm,
			Kinds:               cfg.Kinds,
			ReoptimizeThreshold: cfg.ReoptimizeThreshold,
			Resync:              cfg.ResyncTimeout > 0,
		}, nil)
		if err != nil {
			return nil, err
		}
		n.machine = m
	}
	n.registerFuncs(cfg.Registry)
	// Compile the initial table before any goroutine can race on it: empty
	// for a blank boot, the restored trees for a snapshot warm restart.
	n.recompileFIBLocked(true, nil)
	n.wg.Add(1)
	go n.recvLoop()
	if cfg.Restore != nil {
		// Gap timers pending at snapshot time died with the old runtime. The
		// receive loop may already be stepping the machine.
		n.step(1, (*core.Machine).ResumeTimers)
	}
	return n, nil
}

// ID returns the switch's network ID.
func (n *Node) ID() topo.SwitchID { return n.id }

// Epoch returns the node's restart epoch (zero for a first boot).
func (n *Node) Epoch() uint64 { return n.epoch }

// live follows the succession chain to the node currently serving this
// switch ID: n itself until a crash–restart replaces it.
func (n *Node) live() *Node {
	cur := n
	for {
		next := cur.succ.Load()
		if next == nil {
			return cur
		}
		cur = next
	}
}

// Reconcile starts heal reconciliation with neighbor nb: for every known
// connection, advertise our R to nb and ask for its log suffix beyond it.
// The cluster harness calls this on both ends of every boundary link when a
// partition heals.
func (n *Node) Reconcile(nb topo.SwitchID) {
	n.flight.Record(obs.RecReconcile, 0, uint32(n.id), 0, uint64(nb))
	n.step(1, func(m *core.Machine) { m.ReconcileNeighbor(nb) })
}

// RejoinFromNeighbors runs the cold-rejoin path after a crash–restart with
// no snapshot: ask every neighbor to replay everything about every
// connection, so the node rebuilds membership, stamps, and — critically —
// its own event counter before it originates anything new.
func (n *Node) RejoinFromNeighbors() {
	n.flight.Record(obs.RecRejoin, 0, uint32(n.id), 0, 0)
	n.step(1, func(m *core.Machine) { m.RequestFullResync(n.neighbors) })
}

// effectArrays lends each step the array its machine appends effects to:
// the switches of a process share a few, and the collector takes them back,
// so an idle switch keeps none.
var effectArrays = sync.Pool{New: func() any { return new([]core.Effect) }}

// step is the one way into the protocol machine from the runtime: fn runs
// under the machine lock, then step carries out its effects (trace entries
// stamped in Unix nanoseconds, comparable across nodes), runs any
// ResyncNudge as a ReceiveLSA batch whose effects it carries out in turn,
// and recompiles the FIB before the lock drops if any of it changed
// forwarding. Link events are the transport's, so they need nothing.
// ReceiveBatch answers Figure 5 line 22 "nothing queued": a batch waiting
// for the lock reaches the machine in the next step, as if it arrived just
// after the computation — a schedule the checker explores. The step sits
// in a busy window that closes by crediting units of completed work, so
// the quiescence check sees it either pending, running, or counted.
func (n *Node) step(units uint64, fn func(*core.Machine)) {
	n.busy.Add(1)
	n.mu.Lock()
	lent := effectArrays.Get().(*[]core.Effect)
	n.machine.SwapEffects(*lent)
	fn(n.machine)
	var changedBuf [8]lsa.ConnID
	fibAll, fibChanged := false, changedBuf[:0]
	for {
		var nudges []any
		fx := n.machine.Effects()
		for i := range fx {
			switch e := &fx[i]; e.Kind {
			case core.EffectFloodMC:
				n.mcLSAs.stripe(e.MC.Conn).flooded.Add(1)
				n.flood(e.MC.AppendMarshal)
			case core.EffectFloodNonMC:
				n.flood(e.NonMC.AppendMarshal)
			case core.EffectUnicast:
				n.sendUnicast(e.To, e.Payload)
			case core.EffectArmResync:
				n.armResync(e.Conn)
			case core.EffectSelfNudge:
				nudges = append(nudges, core.ResyncNudge{Conn: e.Conn})
			case core.EffectForwardingChanged:
				fibAll = fibAll || e.Conn == lsa.AllConns
				if e.Conn != lsa.AllConns && !slices.Contains(fibChanged, e.Conn) {
					fibChanged = append(fibChanged, e.Conn)
				}
			case core.EffectTrace:
				if n.tracer != nil {
					n.tracer.Trace(e.Trace.Entry(time.Duration(time.Now().UnixNano()), n.id))
				}
			}
		}
		n.machine.ClearEffects()
		if len(nudges) == 0 {
			break
		}
		n.machine.ReceiveBatch(nil, nudges)
	}
	*lent = n.machine.SwapEffects(nil)
	effectArrays.Put(lent)
	if fibAll || len(fibChanged) > 0 {
		n.recompileFIBLocked(fibAll, fibChanged)
	}
	n.mu.Unlock()
	n.activity.Add(units)
	n.busy.Add(-1)
}

// Inject hands the node one local event (a join, leave, or link change),
// as the co-resident host application would, and runs EventHandler on the
// caller's goroutine: it returns once the event is applied at this switch
// and its flood is on the neighbours' queues. The caller must hold neither
// of the node's locks. Inject after Close returns ErrClosed; one that races
// Close may still step the closing machine, as a resync timer or Reconcile
// can.
func (n *Node) Inject(ev core.LocalEvent) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	var start time.Time
	if n.eventDur != nil {
		start = time.Now()
	}
	n.step(1, func(m *core.Machine) { m.HandleLocalEvent(nil, ev) })
	if n.eventDur != nil {
		n.eventDur.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Join injects a membership join for conn with the given role.
func (n *Node) Join(conn lsa.ConnID, role mctree.Role) error {
	return n.Inject(core.LocalEvent{Conn: conn, Kind: lsa.Join, Role: role})
}

// Leave injects a membership leave for conn.
func (n *Node) Leave(conn lsa.ConnID) error {
	return n.Inject(core.LocalEvent{Conn: conn, Kind: lsa.Leave})
}

// Connection returns a snapshot of the node's state for conn.
func (n *Node) Connection(conn lsa.ConnID) (core.Snapshot, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.machine.Connection(conn)
}

// Connections lists the node's live connections in ascending order.
func (n *Node) Connections() []lsa.ConnID {
	n.mu.Lock()
	out := n.machine.Connections()
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Metrics returns a copy of the node's protocol counters.
func (n *Node) Metrics() core.Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return *n.machine.Metrics()
}

// DecodeErrors counts frames dropped as undecodable (corruption, version
// skew, truncation).
func (n *Node) DecodeErrors() uint64 { return n.decodeErrs.Load() }

// FlightEnabled reports whether the node's flight recorder is on.
func (n *Node) FlightEnabled() bool { return n.flight != nil }

// FlightDoc snapshots the node's flight-recorder rings into the JSON
// document the /flightrec admin endpoint serves (and the offline path
// reconstructor consumes). Returns an empty document when the recorder is
// disabled. Never runs on the hot path.
func (n *Node) FlightDoc() *obs.FlightDoc {
	return &obs.FlightDoc{
		Switch:  uint32(n.id),
		Cap:     n.flight.Cap(),
		Written: n.flight.Written(),
		Events:  n.flight.Snapshot(),
		Hops:    n.hopRec.Snapshot(),
	}
}

// Close stops the receive loop and the resync timers and detaches from the
// transport. It is idempotent and waits for the loop to exit.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.timerMu.Lock()
		for t := range n.timers {
			t.Stop()
		}
		n.timers = nil
		n.timerMu.Unlock()
		n.tr.Close() // unblocks recvLoop
		n.wg.Wait()
	})
	return nil
}

// --- receive loop ---

// rxState is what the receive loop keeps across batches: the send stages its
// relays fill, and the decoded LSAs and resync messages of the batch being
// handled, which ReceiveLSA takes in one step.
type rxState struct {
	tx   txStages
	msgs []any
}

// recvLoop is the transport receive loop: it hands each received batch to
// handleBatch until the transport closes. It runs under the profiler
// labels switch=<id>, work=relay.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	pprof.SetGoroutineLabels(n.relayLabels)
	var rx rxState
	var batch [][]byte
	var err error
	for {
		batch, err = n.tr.RecvBatch(batch)
		if err != nil {
			return
		}
		n.handleBatch(&rx, batch)
	}
}

// handleBatch is the receive loop's unit of work: handle every frame of one
// received batch, flush the relays that staged, run ReceiveLSA on the
// batch's messages, then settle the batch. Relays leave before the machine
// runs, so a flood's next hop never waits for this switch's computation.
// busy covers it so the idle check can't see a gap between frames, and the
// order at the end is the drain contract: the frames stay in the fabric's
// in-flight count until everything they caused is on a queue and counted
// itself, so InFlight never undercounts and a drain loop waiting for zero
// stays exact. Settling per batch keeps the two shared counters — the
// fabric's and activity — off the per-frame path.
func (n *Node) handleBatch(rx *rxState, batch [][]byte) {
	n.busy.Add(1)
	for _, buf := range batch {
		if !n.handleFrame(rx, buf) {
			// Safe to recycle: every payload decoder copies out of the
			// frame, so no message in rx.msgs aliases buf.
			putBuf(buf)
		}
	}
	n.flush(&rx.tx)
	if msgs := rx.msgs; len(msgs) > 0 {
		var start time.Time
		if n.batchDur != nil {
			start = time.Now()
		}
		n.flight.Record(obs.RecLSAApply, 0, uint32(n.id), 0, uint64(len(msgs)))
		pprof.SetGoroutineLabels(n.lsaLabels)
		n.step(uint64(len(msgs)), func(m *core.Machine) { m.ReceiveBatch(nil, msgs) })
		pprof.SetGoroutineLabels(n.relayLabels)
		if n.batchDur != nil {
			n.batchDur.Observe(time.Since(start).Seconds())
		}
		clear(msgs) // the machine keeps the messages it wants, never the batch
		rx.msgs = msgs[:0]
	}
	n.batching.rxBatches.Add(1)
	n.batching.rxFrames.Add(uint64(len(batch)))
	n.activity.Add(uint64(len(batch)))
	n.tr.Release(len(batch))
	n.busy.Add(-1)
}

// batchCounters light the batching that decides data-plane throughput: how
// many frames a receive wake-up finds and how many a burst carries. Bumped
// once per batch or burst, never per frame; the receive half is written by
// the receive loop alone, the send half by every goroutine that flushes.
type batchCounters struct {
	rxBatches, rxFrames atomic.Uint64
	_                   [48]byte
	txBursts, txFrames  atomic.Uint64
	_                   [48]byte
}

// RxWaits returns how the receive loop's waits for traffic ended, and how
// many yields its lingering took (Transport.RxWaits). Together with the
// received-batch count they say how much of a CPU figure is the receive
// loop yielding between bursts instead of sleeping: a park or a linger hit
// ends each idle spell.
func (n *Node) RxWaits() (parks, lingerHits, yields uint64) { return n.tr.RxWaits() }

// handleFrame processes one received frame, staging any relay — of a payload
// frame or of a flood — in rx.tx and appending any decoded LSA or resync
// message to rx.msgs. consumed reports that buf moved into a stage (a
// relayed frame's last link) — the caller recycles the buffer only when it
// is false.
func (n *Node) handleFrame(rx *rxState, buf []byte) (consumed bool) {
	var f lsa.Frame
	if err := lsa.DecodeFrameInto(&f, buf); err != nil {
		n.decodeErrs.Add(1)
		return
	}
	switch f.Kind {
	case lsa.FrameFlood:
		if f.Origin < 0 || int(f.Origin) >= n.switches {
			// No switch of the graph sent this: refused before it can take
			// a window or be relayed.
			n.decodeErrs.Add(1)
			return
		}
		n.relayMu.Lock()
		fresh := n.relay.Accept(f.Origin, f.Seq)
		n.relayMu.Unlock()
		if !fresh { // a duplicate, or a pre-crash incarnation's own flood
			n.ctl.framesDup.Add(1)
			return
		}
		n.ctl.framesRecv.Add(1)
		// The payload is decoded before the relay below may hand buf — which
		// it aliases — to the last neighbour's stage.
		mc, nm, err := lsa.Unmarshal(f.Payload)
		// Store-and-forward by flood.RelaySkip's rule, rewriting the
		// link-level From in the received buffer from the checksum state its
		// decode left. The last neighbour takes the buffer itself. Receivers
		// suppress the duplicates this simple rule creates in cycles. A frame
		// that was sealed intact is relayed whatever this switch makes of its
		// payload.
		skip := flood.RelaySkip(f.From, f.Origin)
		if last := lastLink(n.neighbors, skip); last >= 0 && f.BodySum().PatchFrom(buf, n.id) == nil {
			n.fanOut(&rx.tx, n.neighbors, skip, last, buf, &n.ctl.floodsFwd)
			consumed = true
		}
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		if mc != nil {
			n.mcLSAs.stripe(mc.Conn).received.Add(1)
			rx.msgs = append(rx.msgs, mc)
		} else {
			rx.msgs = append(rx.msgs, nm)
		}
	case lsa.FrameResyncReq:
		req, err := lsa.DecodeResyncRequest(f.Payload)
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		rx.msgs = append(rx.msgs, req)
	case lsa.FrameResyncResp:
		resp, err := lsa.DecodeResyncResponse(f.Payload)
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		rx.msgs = append(rx.msgs, resp)
	case lsa.FrameData:
		return n.handleData(&rx.tx, buf, &f)
	}
	return consumed
}

// SeenOrigins returns the number of flood origins the node's duplicate
// suppressor currently tracks — its total state, since each origin costs a
// fixed-size window (the soak test pins this as bounded).
func (n *Node) SeenOrigins() int {
	n.relayMu.Lock()
	defer n.relayMu.Unlock()
	return n.relay.Origins()
}

// idle reports whether the node has no handler running: no received batch,
// step or injected event. An atomic load only — the poll must not contend
// with the loop it watches. One reading proves nothing by itself; see
// Cluster.quiescent for the argument that uses it.
func (n *Node) idle() bool {
	return n.busy.Load() == 0
}

// --- carrying out the machine's effects ---

// flood originates one flood frame, encoded by appendPayload directly into a
// pooled buffer, and sends it to every neighbor — staged like any fan-out but
// flushed at once: control traffic is never held back for a burst. Runs
// under mu (within a step), which is what guards floodTx.
func (n *Node) flood(appendPayload func([]byte) []byte) {
	buf := lsa.AppendFrameWith(getBuf(256), &lsa.Frame{
		Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: n.id, From: n.id, Seq: n.nextSeq(),
	}, appendPayload)
	n.ctl.floodsOrig.Add(1)
	// The last neighbor takes buf itself; with none it is still ours.
	n.fanOut(&n.floodTx, n.neighbors, noSkip, len(n.neighbors)-1, buf, nil)
	n.flush(&n.floodTx)
	if len(n.neighbors) == 0 {
		putBuf(buf)
	}
}

// maxResyncFrame bounds one resync-response frame on the wire. A response
// is a batch of up to a retained log's worth of LSAs, each carrying an
// n-vector stamp; as one datagram it outgrows UDP's 65 507-byte payload at
// a few hundred LSAs and the send fails with EMSGSIZE. Half of that limit
// leaves room for any single LSA to push a frame over.
const maxResyncFrame = 32 << 10

// sendUnicast frames a resync message point-to-point. A response is cut
// into as many frames as keep each within maxResyncFrame; the receiver's
// ordered apply and out-of-order buffer absorb any reordering between them.
func (n *Node) sendUnicast(to topo.SwitchID, payload any) {
	switch v := payload.(type) {
	case *lsa.ResyncRequest:
		n.sendFrame(to, lsa.FrameResyncReq, v.AppendMarshal)
	case *lsa.ResyncResponse:
		for _, part := range v.Split(maxResyncFrame) {
			n.sendFrame(to, lsa.FrameResyncResp, part.AppendMarshal)
		}
	default:
		n.ctl.sendErrs.Add(1) // unframeable: dropped, counted as a refused send
	}
}

// sendFrame sends one point-to-point frame whose payload appendPayload
// encodes straight into a pooled buffer.
func (n *Node) sendFrame(to topo.SwitchID, kind lsa.FrameKind, appendPayload func([]byte) []byte) {
	buf := lsa.AppendFrameWith(getBuf(256), &lsa.Frame{
		Version: lsa.FrameVersion, Kind: kind,
		Origin: n.id, From: n.id, Seq: n.nextSeq(),
	}, appendPayload)
	n.ctl.unicasts.Add(1)
	if err := n.tr.Send(to, buf); err != nil {
		n.ctl.sendErrs.Add(1)
	}
	putBuf(buf)
}

// nextSeq numbers one originated flood or unicast.
func (n *Node) nextSeq() uint64 {
	n.relayMu.Lock()
	defer n.relayMu.Unlock()
	return n.relay.Next()
}

// armResync starts a wall-clock gap timer that steps the machine's
// ResyncFired when it fires.
func (n *Node) armResync(conn lsa.ConnID) {
	select {
	case <-n.closed:
		return
	default:
	}
	var t *time.Timer
	t = time.AfterFunc(n.resyncAfter, func() {
		n.timerMu.Lock()
		if n.timers != nil {
			delete(n.timers, t)
		}
		n.timerMu.Unlock()
		select {
		case <-n.closed:
			return
		default:
		}
		n.ctl.resyncTmr.Add(1)
		n.flight.Record(obs.RecResyncFired, uint32(conn), uint32(n.id), 0, 0)
		n.step(1, func(m *core.Machine) { m.ResyncFired(conn, n.neighbors) })
	})
	n.timerMu.Lock()
	if n.timers == nil {
		t.Stop() // closed concurrently
	} else {
		n.timers[t] = struct{}{}
	}
	n.timerMu.Unlock()
}
