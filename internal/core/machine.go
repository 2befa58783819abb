package core

import (
	"fmt"
	"slices"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/lsr"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// This file is the pure D-GMC state machine: one switch's EventHandler and
// ReceiveLSA entities (Figures 4 and 5 of the paper) plus gap recovery. It
// does no I/O: flooding, unicast, timers and trace are effects it returns
// as values (see effect.go), and every topology computation is split into a
// begin and a completion so the runtime decides what happens in between
// (see compute.go). The same Machine runs under the discrete-event
// simulator (internal/sim via the Switch adapter in this package), the
// schedule explorer (internal/explore) and the live concurrent runtime
// (internal/rt), so the protocol is exercised, never forked.

// LocalEvent is what the hosting runtime injects into a switch's event
// path: a membership change for a connection, or a locally detected link
// event (Kind == lsa.Link, with Link describing the change).
type LocalEvent struct {
	Conn lsa.ConnID
	Kind lsa.Event // Join, Leave, or Link
	Role mctree.Role
	Link lsa.LinkChange // for Link events
}

// ResyncNudge is a self-addressed receive-path entry: it runs ReceiveLSA
// with an empty batch, giving Figure 5 line 19 a chance to fire after gap
// recovery set makeProposal (commit-lag recovery). For an EffectSelfNudge,
// the simulator and the checker queue it on the switch's own receive path;
// the live node runs it before the step that asked for it releases the
// machine.
type ResyncNudge struct{ Conn lsa.ConnID }

// Mutation selects a deliberately seeded protocol bug. The schedule
// exploration harness (internal/explore) uses mutations to validate its
// own invariant checks: a checker that cannot catch a known-broken
// timestamp comparison cannot be trusted to certify the correct one.
// Production configurations leave it at MutationNone.
type Mutation uint8

const (
	// MutationNone runs the protocol as specified.
	MutationNone Mutation = iota
	// MutationAcceptStaleProposal drops the vector-timestamp dominance
	// check on proposal acceptance (Figure 5 line 11): every proposal-
	// carrying event LSA is accepted, so a proposal based on fewer events
	// can overwrite a fresher topology — and, because taking the accept
	// branch skips the inconsistency check, no switch owes the network a
	// correction afterwards. Under concurrent events, specific delivery
	// orders then quiesce with switches installed on different trees.
	MutationAcceptStaleProposal
	// MutationIgnoreEventOrder disables per-origin ordered application of
	// event LSAs (the stale-drop/buffer machinery of applyEventLSA):
	// every arriving copy is applied to the member list immediately, as if
	// the fabric were trusted never to reorder or duplicate. A leave
	// delivered before the join it follows then resurrects the member at
	// that switch when the join's copy lands, and specific delivery orders
	// quiesce with member lists diverged.
	MutationIgnoreEventOrder
	// MutationUncappedPseudoProposal stamps the pseudo-proposal that
	// closes a resync replay (serveResync) with the server's expectation
	// vector E instead of its committed stamp C. After a heal the server's
	// E covers the requester's knowledge too, so a stale installed
	// topology gains a stamp that dominates everything the requester will
	// ever expect and overwrites fresher trees.
	MutationUncappedPseudoProposal
	// MutationTruncateWithoutCatchUp trims the event log as specified but
	// answers resync requests from the retained suffix alone, with no
	// catch-up for origins whose missing events were trimmed (serveResync).
	// A switch that heals or restarts after its peer trimmed receives
	// events it can only buffer out of order, behind a hole no replay will
	// ever fill: its member list and stamps stay behind for good.
	MutationTruncateWithoutCatchUp
	// MutationCompleteWithoutRecheck completes a topology computation as if
	// nothing could have arrived while it ran: both completion sites skip
	// the "is R still old_R?" test (Figure 4 line 6, Figure 5 line 22). A
	// proposal computed from a membership snapshot that events have since
	// overtaken is then flooded and installed under the old stamp, and can
	// overwrite the commit of a fresher one. Invisible unless something is
	// scheduled between a computation's begin and its completion.
	MutationCompleteWithoutRecheck
	// MutationNoInconsistencyCheck removes Figure 5 line 15: an LSA whose
	// stamp shows its sender unaware of this switch's own events no longer
	// sets makeProposal. Two concurrent events whose EventHandler proposals
	// cross in flight then leave both switches on a stale basis — neither
	// accepts the other's single-event proposal, and neither knows it owes
	// the network a fresh one.
	MutationNoInconsistencyCheck
)

// Valid reports whether mu is a defined mutation.
func (mu Mutation) Valid() bool { return mu <= MutationNoInconsistencyCheck }

// String implements fmt.Stringer.
func (mu Mutation) String() string {
	switch mu {
	case MutationNone:
		return "none"
	case MutationAcceptStaleProposal:
		return "accept-stale"
	case MutationIgnoreEventOrder:
		return "ignore-event-order"
	case MutationUncappedPseudoProposal:
		return "uncapped-pseudo-proposal"
	case MutationTruncateWithoutCatchUp:
		return "truncate-without-catchup"
	case MutationCompleteWithoutRecheck:
		return "complete-without-recheck"
	case MutationNoInconsistencyCheck:
		return "no-inconsistency-check"
	default:
		return fmt.Sprintf("Mutation(%d)", uint8(mu))
	}
}

// Mutations returns every defined mutation, MutationNone first.
func Mutations() []Mutation {
	var out []Mutation
	for mu := MutationNone; mu.Valid(); mu++ {
		out = append(out, mu)
	}
	return out
}

// ParseMutation resolves a mutation by its String name.
func ParseMutation(name string) (Mutation, error) {
	for _, mu := range Mutations() {
		if mu.String() == name {
			return mu, nil
		}
	}
	return MutationNone, fmt.Errorf("core: unknown mutation %q", name)
}

// MachineConfig configures one switch's protocol state machine.
type MachineConfig struct {
	// ID is the switch's network ID. Required to be in [0, Graph.NumSwitches()).
	ID topo.SwitchID
	// Graph is the configured network topology; the machine clones it
	// into its local LSR image. Required.
	Graph *topo.Graph
	// Algorithm computes MC topologies. Required.
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold enables §3.5 re-optimization on link recovery
	// (see Config.ReoptimizeThreshold). Zero disables.
	ReoptimizeThreshold float64
	// Resync enables gap recovery; the timeout itself is the host's
	// (virtual for the simulator, wall-clock for live runtimes).
	Resync bool
	// ResyncMaxRounds bounds resync requests per connection per gap
	// (default 64 when resync is enabled).
	ResyncMaxRounds int
	// Metrics receives protocol counters. The simulator shares one
	// Metrics across the domain; live runtimes keep one per node. A nil
	// Metrics is allocated internally.
	Metrics *Metrics
	// Mutation seeds a known protocol bug for checker validation
	// (MutationNone for correct operation).
	Mutation Mutation
}

// Machine is one switch's D-GMC protocol state: its unicast LSR instance,
// its per-connection protocol state, and the EventHandler/ReceiveLSA
// logic. A Machine is not safe for concurrent use; the hosting runtime
// must serialize calls into it (the simulator by running one event at a
// time, the live runtime with a per-node mutex).
type Machine struct {
	id        topo.SwitchID
	uni       *lsr.Instance
	conns     map[lsa.ConnID]*connState
	n         int
	alg       route.Algorithm
	kinds     map[lsa.ConnID]mctree.Kind
	reopt     float64
	resync    bool
	resyncMax int
	metrics   *Metrics
	mutation  Mutation

	// computing holds each entity's topology computation between its begin
	// and its completion; local and batch hold the rest of the machine call
	// that computation interrupted (see compute.go).
	computing [2]computation
	local     localRest
	batch     batchRest

	// recv is BeginReceive's working set, kept across batches so a batch
	// allocates neither: index places a connection in batch.groups, and
	// groups is the array batch.groups is cut from, each group keeping its
	// message slice's array. A clone gets neither (Clone).
	recv struct {
		index  map[lsa.ConnID]int
		groups []connGroup
	}

	// fx is the effect list the host drains (see effect.go).
	fx []Effect
	// host, when set, takes the MC floods of HandleLocalEvent and
	// ReceiveBatch (see Host); nil for every runtime.
	host Host
}

// NewMachine builds a switch's protocol state machine. host is nil except
// for the benchmark's stand-alone machines (see Host).
func NewMachine(cfg MachineConfig, host Host) (*Machine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: MachineConfig.Graph is required")
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("core: MachineConfig.Algorithm is required")
	}
	if cfg.ReoptimizeThreshold < 0 {
		return nil, fmt.Errorf("core: negative re-optimization threshold %v", cfg.ReoptimizeThreshold)
	}
	if cfg.ResyncMaxRounds < 0 {
		return nil, fmt.Errorf("core: negative resync round limit %d", cfg.ResyncMaxRounds)
	}
	if cfg.ResyncMaxRounds == 0 {
		cfg.ResyncMaxRounds = 64
	}
	if !cfg.Mutation.Valid() {
		return nil, fmt.Errorf("core: unknown mutation %d", cfg.Mutation)
	}
	uni, err := lsr.NewInstance(cfg.ID, cfg.Graph)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Machine{
		id:        cfg.ID,
		host:      host,
		uni:       uni,
		conns:     make(map[lsa.ConnID]*connState),
		n:         cfg.Graph.NumSwitches(),
		alg:       cfg.Algorithm,
		kinds:     cfg.Kinds,
		reopt:     cfg.ReoptimizeThreshold,
		resync:    cfg.Resync,
		resyncMax: cfg.ResyncMaxRounds,
		metrics:   cfg.Metrics,
		mutation:  cfg.Mutation,
	}, nil
}

// ID returns the switch's network ID.
func (m *Machine) ID() topo.SwitchID { return m.id }

// Unicast returns the switch's LSR instance (its local network image).
func (m *Machine) Unicast() *lsr.Instance { return m.uni }

// ForwardingState invokes fn for every live (non-dormant) connection in
// ascending ID order with the state the data plane compiles from: MC kind,
// membership, and the installed topology (nil when none is installed yet).
// The members map and tree are the machine's own — fn must only read them
// and must not retain them beyond the call.
func (m *Machine) ForwardingState(fn func(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree)) {
	for _, id := range sortedConnIDs(m.conns) {
		cs := m.conns[id]
		if cs.dormant {
			continue
		}
		fn(id, cs.kind, cs.members, cs.topology)
	}
}

// ConnForwardingState is ForwardingState for one connection: fn is invoked,
// under the same rules, if conn is live, and not at all otherwise.
func (m *Machine) ConnForwardingState(conn lsa.ConnID, fn func(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree)) {
	if cs, ok := m.conns[conn]; ok && !cs.dormant {
		fn(conn, cs.kind, cs.members, cs.topology)
	}
}

// Metrics returns the machine's counters.
func (m *Machine) Metrics() *Metrics { return m.metrics }

// Connection returns a snapshot of the switch's state for conn, or
// ok=false if the switch holds no state for it.
func (m *Machine) Connection(conn lsa.ConnID) (Snapshot, bool) {
	cs, ok := m.conns[conn]
	if !ok {
		return Snapshot{}, false
	}
	return cs.snapshot(), true
}

// Connections lists the IDs of live (non-dormant) connections at this
// switch.
func (m *Machine) Connections() []lsa.ConnID {
	out := make([]lsa.ConnID, 0, len(m.conns))
	for id, cs := range m.conns {
		if !cs.dormant {
			out = append(out, id)
		}
	}
	return out
}

// kindOf returns the declared MC type for conn (default Symmetric).
func (m *Machine) kindOf(conn lsa.ConnID) mctree.Kind {
	if k, ok := m.kinds[conn]; ok {
		return k
	}
	return mctree.Symmetric
}

// conn returns (allocating if needed) the state for connection id. Per
// §3.4, switches allocate MC data structures when they first hear of the
// connection.
func (m *Machine) conn(id lsa.ConnID) *connState {
	cs, ok := m.conns[id]
	if !ok {
		cs = newConnState(id, m.kindOf(id), m.n)
		m.conns[id] = cs
	}
	return cs
}

// updateDormancy destroys the connection's heavy state when the member
// list has emptied and no LSAs are known to be outstanding (§3.4). The
// event counters persist (see connState.dormant); a later event resurrects
// the connection.
func (m *Machine) updateDormancy(cs *connState, chain ChainID) {
	if len(cs.members) == 0 && cs.r.Geq(cs.e) {
		if !cs.dormant {
			cs.dormant = true
			cs.topology = nil
			m.trace(TraceRecord{Kind: TraceDestroy, Chain: chain, Conn: cs.id, site: trDestroyed})
		}
		return
	}
	if cs.dormant && len(cs.members) > 0 {
		cs.dormant = false
	}
}

// HandleLocalEvent runs one injected event to the end: BeginLocalEvent,
// then Complete(EventHandler, false) until nothing is pending. The first
// argument is unused.
func (m *Machine) HandleLocalEvent(_ any, ev LocalEvent) {
	for pending := m.BeginLocalEvent(ev); pending; pending = m.Complete(EventHandler, false) {
	}
	m.replay()
}

// BeginLocalEvent dispatches one injected event and runs it up to its first
// topology computation. A membership event invokes EventHandler once; a
// link event floods one non-MC LSA and then invokes EventHandler once per
// affected connection (Figure 2). It reports whether EventHandler now has a
// computation pending; the caller then owes Complete(EventHandler) calls
// until one reports false, and must not begin another local event before.
func (m *Machine) BeginLocalEvent(ev LocalEvent) bool {
	m.mustBeIdle(EventHandler)
	switch ev.Kind {
	case lsa.Join, lsa.Leave:
		return m.beginEvent(ev.Kind, ev.Role, m.conn(ev.Conn))
	case lsa.Link:
		nm, err := m.uni.ApplyLocalEvent(ev.Link)
		if err != nil {
			m.trace(TraceRecord{Kind: TraceError, Conn: ev.Conn, site: trError, v: fmt.Errorf("local link event: %w", err)})
			return false
		}
		// Keep the runtime's fabric in sync so floods route around the
		// failure (the physical network changed, not just images).
		m.emit(Effect{Kind: EffectFabricLinkChanged, Link: ev.Link})
		m.emit(Effect{Kind: EffectForwardingChanged, Conn: lsa.AllConns})
		m.emit(Effect{Kind: EffectFloodNonMC, NonMC: nm})
		m.metrics.NonMCLSAs++
		// One MC LSA per connection whose topology uses the affected link,
		// then §3.5 re-optimization: a recovered link may offer better trees.
		m.local = localRest{affected: m.affectedConns(ev.Link), reoptimize: !ev.Link.Down && m.reopt > 0}
		return m.continueLocal()
	}
	return false
}

// continueLocal resumes a link event: the remaining affected connections,
// then the re-optimization pass. It reports whether it stopped at another
// computation.
func (m *Machine) continueLocal() bool {
	rest := &m.local
	for len(rest.affected) > 0 {
		cs := m.conns[rest.affected[0]]
		rest.affected = rest.affected[1:]
		if m.beginEvent(lsa.Link, 0, cs) {
			return true
		}
	}
	if rest.reoptimize {
		rest.reoptimize = false
		rest.estimates = sortedConnIDs(m.conns)
	}
	for len(rest.estimates) > 0 {
		cs := m.conns[rest.estimates[0]]
		rest.estimates = rest.estimates[1:]
		if m.beginEstimate(cs) {
			return true
		}
	}
	return false
}

// beginEstimate starts §3.5's policy for non-adverse changes on one live
// connection: estimate a fresh topology on the improved image.
func (m *Machine) beginEstimate(cs *connState) bool {
	if cs.dormant || cs.topology == nil || len(cs.members) < 2 {
		return false
	}
	m.metrics.ReoptChecks++
	m.metrics.Computations++
	m.computing[EventHandler] = computation{site: siteEstimate, conn: cs.id, members: m.filterReachable(cs.members.Clone())}
	return true
}

// completeEstimate signals a link event (re-converging the network) only
// when the installed tree deviates from the fresh one by more than the
// configured threshold. It reports whether that left a computation pending.
func (m *Machine) completeEstimate(c *computation, cs *connState) bool {
	start := time.Now()
	fresh, err := m.alg.Compute(m.uni.Image(), cs.kind, c.members)
	m.metrics.ComputeNanos += uint64(time.Since(start))
	if err != nil || cs.topology == nil {
		return false
	}
	cur := float64(cs.topology.Cost(m.uni.Image()))
	if cur <= float64(fresh.Cost(m.uni.Image()))*(1+m.reopt) {
		return false // within tolerance of optimal: leave the tree alone
	}
	m.trace(TraceRecord{Kind: TraceCompute, Conn: cs.id, site: trReoptimize,
		v: 100 * (cur/float64(fresh.Cost(m.uni.Image())) - 1)})
	return m.beginEvent(lsa.Link, 0, cs)
}

// affectedConns returns connections whose installed topology uses the
// changed link, in ascending connection order for determinism.
func (m *Machine) affectedConns(change lsa.LinkChange) []lsa.ConnID {
	var out []lsa.ConnID
	for _, id := range sortedConnIDs(m.conns) {
		if t := m.conns[id].topology; t != nil && t.Has(change.A, change.B) {
			out = append(out, id)
		}
	}
	return out
}

func sortedConnIDs(m map[lsa.ConnID]*connState) []lsa.ConnID {
	return appendSortedConnIDs(make([]lsa.ConnID, 0, len(m)), m)
}

// appendSortedConnIDs appends m's connection IDs to buf in ascending order.
func appendSortedConnIDs(buf []lsa.ConnID, m map[lsa.ConnID]*connState) []lsa.ConnID {
	at := len(buf)
	for id := range m {
		buf = append(buf, id)
	}
	slices.Sort(buf[at:])
	return buf
}

// beginEvent is Figure 4 of the paper up to its computation: handle one
// local event for one connection. It reports whether a proposal is now
// being computed (lines 4-5); otherwise the event is fully handled.
func (m *Machine) beginEvent(event lsa.Event, role mctree.Role, cs *connState) bool {
	x := int(m.id)
	m.metrics.Events++
	// This event is the root of a new causal chain: its flooded LSA will
	// carry Stamp[x] == cs.r[x]+1, so remote steps derive the same ID.
	chain := ChainID{Origin: m.id, Seq: cs.r[x] + 1}
	m.trace(TraceRecord{Kind: TraceEvent, Chain: chain, Conn: cs.id, site: trLocalEvent, n: [3]uint32{uint32(event)}})

	// Line 1: R[x]++, E[x]++.
	cs.r.Inc(x)
	cs.e.Inc(x)
	// Apply the membership change locally (remote switches learn it from
	// the flooded LSA; Figure 5 line 8 is the receiving-side mirror).
	cs.applyMembership(event, x, role)

	// Line 2: any known outstanding LSAs?
	if cs.r.Geq(cs.e) {
		// Lines 4-5: snapshot R, compute a proposal (takes Tc).
		c := m.beginCompute(EventHandler, siteEvent, chain, cs)
		c.event, c.role = event, role
		return true
	}
	// Lines 16-17: outstanding LSAs exist; flood the bare event and
	// defer to ReceiveLSA.
	msg := &lsa.MC{Src: m.id, Event: event, Role: role, Conn: cs.id, Proposal: nil, Stamp: cs.r.Clone()}
	m.floodMC(chain, msg)
	cs.logEvent(msg)
	cs.makeProposal = true
	m.endInvocation(cs, chain)
	return false
}

// completeEvent is Figure 4 from line 6: the proposal is ready.
func (m *Machine) completeEvent(c *computation, cs *connState) {
	proposal := m.compute(c, cs)
	// Line 6: is the proposal still valid? Skipping the question is the
	// seeded-bug site for MutationCompleteWithoutRecheck (checker validation).
	current := cs.r.Equal(c.oldR) || m.mutation == MutationCompleteWithoutRecheck
	if proposal != nil && current {
		// Lines 7-10: flood proposal, install it. The message owns oldR
		// from here (it is a snapshot never touched again locally, and
		// LSA stamps are read-only on every receive path).
		msg := &lsa.MC{Src: m.id, Event: c.event, Role: c.role, Conn: cs.id, Proposal: proposal, Stamp: c.oldR}
		m.floodMC(c.chain, msg)
		cs.logEvent(msg)
		cs.c.CopyFrom(c.oldR)
		cs.makeProposal = false
		m.install(cs, c.chain, proposal, EventHandler)
	} else {
		// Lines 12-13: withdraw; flood the bare event, defer to
		// ReceiveLSA.
		msg := &lsa.MC{Src: m.id, Event: c.event, Role: c.role, Conn: cs.id, Proposal: nil, Stamp: c.oldR}
		m.floodMC(c.chain, msg)
		cs.logEvent(msg)
		cs.makeProposal = true
		m.metrics.Withdrawn++
		m.trace(TraceRecord{Kind: TraceWithdraw, Chain: c.chain, Conn: cs.id, site: trEventWithdrawn})
	}
	m.endInvocation(cs, c.chain)
}

// endInvocation is the tail every EventHandler and ReceiveLSA invocation
// ends with.
func (m *Machine) endInvocation(cs *connState, chain ChainID) {
	m.updateDormancy(cs, chain)
	m.emit(Effect{Kind: EffectForwardingChanged, Conn: cs.id})
	m.maybeScheduleResync(cs)
}

// ReceiveBatch runs a drained receive-queue batch to the end: BeginReceive,
// then Complete(ReceiveLSA, false) until nothing is pending — the answer of
// a runtime that hands each batch to the machine as it takes it, and so
// keeps no queue behind it. The first argument is unused.
func (m *Machine) ReceiveBatch(_ any, batch []any) {
	for pending := m.BeginReceive(batch); pending; pending = m.Complete(ReceiveLSA, false) {
	}
	m.replay()
}

// BeginReceive demultiplexes a drained receive-queue batch: non-MC LSAs go
// to the unicast substrate; MC LSAs are grouped per connection and handed
// to ReceiveLSA (which the paper presents per-MC). Resync traffic (unicast
// requests/replays between neighbors, and self-addressed nudges) rides the
// same queue: replayed LSAs join the per-connection groups, requests are
// served after ReceiveLSA has consumed the batch.
//
// Accepted batch entries are the protocol's five message kinds: *lsa.MC,
// *lsa.NonMC, *lsa.ResyncRequest, *lsa.ResyncResponse and ResyncNudge.
// Anything else is ignored.
//
// It reports whether ReceiveLSA now has a computation pending; the caller
// then owes Complete(ReceiveLSA) calls until one reports false, and must
// not begin another batch before.
func (m *Machine) BeginReceive(batch []any) bool {
	m.mustBeIdle(ReceiveLSA)
	if m.recv.index == nil {
		m.recv.index = make(map[lsa.ConnID]int)
	}
	m.batch.groups = m.recv.groups[:0]
	for _, raw := range batch {
		m.consume(raw)
	}
	m.recv.groups = m.batch.groups // keep what the batch grew
	return m.continueBatch()
}

// consume files one batch entry into m.batch.
func (m *Machine) consume(raw any) {
	b := &m.batch
	group := func(conn lsa.ConnID) *connGroup {
		i, seen := m.recv.index[conn]
		if !seen {
			i = len(b.groups)
			m.recv.index[conn] = i
			if i < cap(b.groups) {
				b.groups = b.groups[:i+1]
				b.groups[i].conn = conn
			} else {
				b.groups = append(b.groups, connGroup{conn: conn})
			}
		}
		return &b.groups[i]
	}
	switch v := raw.(type) {
	case ResyncNudge:
		group(v.Conn)
	case *lsa.ResyncRequest:
		b.requests = append(b.requests, v)
	case *lsa.ResyncResponse:
		for _, mc := range v.Batch {
			if b.replayed == nil {
				b.replayed = make(replayMarks)
			}
			b.replayed[string(mc.Marshal())] = true
			m.consume(mc)
		}
	case *lsa.NonMC:
		changed, err := m.uni.HandleLSA(v)
		if err != nil {
			m.trace(TraceRecord{Kind: TraceError, site: trError, v: fmt.Errorf("unicast LSA: %w", err)})
			return
		}
		if changed {
			m.emit(Effect{Kind: EffectForwardingChanged, Conn: lsa.AllConns})
		}
	case *lsa.MC:
		g := group(v.Conn)
		g.msgs = append(g.msgs, v)
	}
}

// continueBatch carries on with the sorted batch: the per-connection groups
// in arrival order, then the deferred resync requests. It reports whether
// it stopped at a computation.
func (m *Machine) continueBatch() bool {
	b := &m.batch
	for len(b.groups) > 0 {
		g := b.groups[0]
		b.groups = b.groups[1:]
		if m.beginReceiveLSA(m.conn(g.conn), g.msgs, b.replayed) {
			return true
		}
	}
	requests := b.requests
	m.batch = batchRest{}
	m.endBatch()
	for _, req := range requests {
		m.handleResyncRequest(req)
	}
	return false
}

// endBatch readies the working set for the next batch: the index emptied,
// and every group's messages dropped (the array kept, the LSAs not) so a
// finished batch holds nothing alive.
func (m *Machine) endBatch() {
	clear(m.recv.index)
	for i := range m.recv.groups {
		g := &m.recv.groups[i]
		clear(g.msgs)
		g.msgs = g.msgs[:0]
	}
}

// beginReceiveLSA is Figure 5 of the paper up to its computation: process a
// batch of LSAs for one connection, then decide whether to compute and
// flood a proposal. replayed marks batch entries that arrived in a resync
// replay rather than a flood (nil when none did). It reports whether a
// proposal is now being computed; otherwise the batch is fully handled.
func (m *Machine) beginReceiveLSA(cs *connState, batch []*lsa.MC, replayed replayMarks) bool {
	x := int(m.id)

	// Lines 1-2. candidateStamp is only read when candidate is non-nil, and
	// every assignment of candidate assigns it too, so it needs no initial
	// clone of C.
	var candidate *mctree.Tree
	var candidateStamp stamp.Stamp
	// batchChain attributes the steps this batch causes (computations,
	// triggered floods, installs) to the most recent event applied; an
	// installed candidate is attributed to the LSA that carried it.
	var batchChain, candidateChain ChainID

	// Lines 3-18: consume the LSAs.
	for _, msg := range batch {
		m.trace(TraceRecord{Kind: TraceRecv, Chain: chainOf(msg), Conn: cs.id, site: trRecv, v: msg})
		// Lines 5-9: an event LSA advances R and the member list. A lossy
		// transport can deliver copies duplicated or out of per-origin
		// order, so application is ordered: stale copies are dropped, early
		// ones buffered, and applying one event can release buffered
		// successors — which are then consumed as if freshly received. On a
		// loss-free transport this degenerates to the paper's lines 5-9.
		var one [1]*lsa.MC // what applyEventLSA returns but for released successors
		for _, a := range m.applyEventLSA(one[:0], cs, msg) {
			if a.Event.IsEvent() {
				batchChain = chainOf(a)
				// An event learned through a replay was never flooded to the
				// rest of the network by this switch's side of the exchange.
				// Flood it onward (the OSPF rule for LSAs learned during
				// database exchange), so knowledge recovered across a healed
				// boundary propagates transitively instead of stopping at
				// the reconciling pair. Copies reaching switches that
				// already applied the event are stale-dropped; re-flooding
				// is bounded because only replay arrivals qualify — the
				// forwarded copies themselves arrive as ordinary floods.
				if replayed.has(a) {
					m.metrics.Replays++
					m.floodMC(batchChain, a)
				}
			}
			// Line 10: merge any new expectations.
			cs.e.MaxInPlace(a.Stamp)
			// Lines 11-17. The stamp dominance check is the seeded-bug
			// site for MutationAcceptStaleProposal (checker validation).
			dominates := a.Stamp.Geq(cs.e)
			if m.mutation == MutationAcceptStaleProposal {
				dominates = true
			}
			if dominates && a.Proposal != nil {
				// The proposal is based on every event known to this switch.
				// Aliasing a.Stamp is safe: received stamps are read-only.
				candidate = a.Proposal
				candidateStamp = a.Stamp
				candidateChain = chainOf(a)
				cs.makeProposal = false
			} else if cs.r[x] > a.Stamp[x] && m.mutation != MutationNoInconsistencyCheck {
				// Line 15, inconsistency: the sender did not know about all
				// our local events; we owe the network a proposal. (Never
				// noticing is the seeded-bug site for
				// MutationNoInconsistencyCheck.)
				cs.makeProposal = true
			}
		}
	}

	// Line 19: compute a proposal if owed, expectations met, and the basis
	// would be fresher than the installed topology. Either way it ends, the
	// computation replaces the candidate (lines 26 and 29).
	if cs.makeProposal && cs.r.Geq(cs.e) && cs.r.Greater(cs.c) {
		// Lines 20-21: snapshot R, compute (takes Tc).
		m.beginCompute(ReceiveLSA, siteReceive, batchChain, cs)
		return true
	}
	m.acceptCandidate(cs, candidate, candidateStamp, candidateChain, batchChain)
	return false
}

// completeReceive is Figure 5 from line 22: the triggered proposal is ready.
// queued is the host's answer to the line's "is an MC LSA for this
// connection still queued?".
func (m *Machine) completeReceive(c *computation, cs *connState, queued bool) {
	proposal := m.compute(c, cs)
	// Line 22: still current, and nothing new queued for this MC? (The
	// first half is the second seeded-bug site for
	// MutationCompleteWithoutRecheck.)
	current := cs.r.Equal(c.oldR) || m.mutation == MutationCompleteWithoutRecheck
	if proposal != nil && !queued && current {
		// Lines 23-27: flood as a triggered LSA (V = none).
		m.floodMC(c.chain, &lsa.MC{Src: m.id, Event: lsa.None, Conn: cs.id, Proposal: proposal, Stamp: c.oldR})
		cs.e.CopyFrom(cs.r) // line 24: bring E up to date
		cs.makeProposal = false
	} else {
		// Lines 28-30: withdraw.
		proposal = nil
		m.metrics.Withdrawn++
		m.trace(TraceRecord{Kind: TraceWithdraw, Chain: c.chain, Conn: cs.id, site: trTriggeredWithdrawn})
	}
	m.acceptCandidate(cs, proposal, c.oldR, c.chain, c.chain)
}

// acceptCandidate is Figure 5 lines 32-35 — accept the best proposal seen,
// if any — and the end of the ReceiveLSA invocation.
func (m *Machine) acceptCandidate(cs *connState, candidate *mctree.Tree, at stamp.Stamp, candidateChain, batchChain ChainID) {
	if candidate != nil {
		cs.c.CopyFrom(at)
		m.install(cs, candidateChain, candidate, ReceiveLSA)
	}
	m.endInvocation(cs, batchChain)
}

// filterReachable restricts a member set to switches this switch can
// currently reach in its local image. Members cut off by link or nodal
// failures are excluded from topology computations so the reachable part
// of the network still converges on a serviceable tree — each partition
// proceeds with the members it can see (full partition *recovery* remains
// out of scope, as in the paper §6). With nobody cut off — the network as
// it nearly always is — the result is members itself, not a copy.
func (m *Machine) filterReachable(members mctree.Members) mctree.Members {
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	var reach []bool // by switch ID; built for the first member that is not this switch
	reachable := func(mem topo.SwitchID) bool {
		if mem == m.id {
			return true
		}
		if reach == nil {
			reach = m.uni.Image().Reach(sc, m.id)
		}
		return mem >= 0 && int(mem) < len(reach) && reach[mem]
	}
	cut := 0
	for mem := range members {
		if !reachable(mem) {
			cut++
		}
	}
	if cut == 0 {
		return members
	}
	out := make(mctree.Members, len(members)-cut)
	for mem, role := range members {
		if reachable(mem) {
			out[mem] = role
		}
	}
	return out
}

// beginCompute starts a proposal computation for entity e (Figure 4 lines
// 4-5 / Figure 5 lines 20-21): snapshot R, the member list — it may change
// during Tc — and the installed tree.
func (m *Machine) beginCompute(e Entity, site computeSite, chain ChainID, cs *connState) *computation {
	m.metrics.Computations++
	m.trace(TraceRecord{Kind: TraceCompute, Chain: chain, Conn: cs.id, site: trComputing, n: [3]uint32{uint32(len(cs.members))}})
	c := &m.computing[e]
	*c = computation{
		site: site, conn: cs.id, chain: chain,
		oldR: cs.r.Clone(), members: cs.members.Clone(),
		prev: cs.topology,
	}
	return c
}

// compute runs the configured algorithm over this switch's local image —
// the protocol's dominant cost. A failed computation is traced and yields
// nil, which the callers treat as a withdrawal.
func (m *Machine) compute(c *computation, cs *connState) *mctree.Tree {
	// Wall-clock cost of the algorithm itself (whatever the host charged
	// between begin and completion is deliberately excluded).
	start := time.Now()
	defer func() { m.metrics.ComputeNanos += uint64(time.Since(start)) }()
	// Reachability is evaluated against the image as of the end of the
	// computation: link/nodal LSAs applied during Tc must not leave us
	// asking the algorithm to span a switch the network can no longer
	// reach (members cut off by failures are served again after repair or
	// timed out by the application; the paper defers partition recovery).
	t, err := m.alg.Update(m.uni.Image(), cs.kind, m.filterReachable(c.members), c.prev)
	if err != nil {
		m.trace(TraceRecord{Kind: TraceError, Chain: c.chain, Conn: cs.id, site: trError, v: fmt.Errorf("compute: %w", err)})
		return nil
	}
	return t
}

// floodMC asks the host to flood an MC LSA network-wide.
func (m *Machine) floodMC(chain ChainID, msg *lsa.MC) {
	m.metrics.MCLSAs++
	m.trace(TraceRecord{Kind: TraceFlood, Chain: chain, Conn: msg.Conn, site: trFlood, v: msg})
	m.emit(Effect{Kind: EffectFloodMC, MC: msg})
}

// install records the accepted topology and updates the switch's MC routing
// entries (its tree-adjacent links).
func (m *Machine) install(cs *connState, chain ChainID, t *mctree.Tree, via Entity) {
	cs.topology = t
	cs.installs++
	m.metrics.Installs++
	m.emit(Effect{Kind: EffectNoteInstall})
	m.trace(TraceRecord{Kind: TraceInstall, Chain: chain, Conn: cs.id, site: trInstalled, v: t, n: [3]uint32{uint32(via)}})
}

// EventLogDepth returns the number of event LSAs currently retained for
// replay across every connection (observability: it stays below
// EventLogLimit per connection however long the switch has lived).
func (m *Machine) EventLogDepth() int {
	total := 0
	for _, cs := range m.conns {
		total += int(cs.logDepth)
	}
	return total
}

// EventLogBytes returns what the event logs counted by EventLogDepth
// occupy, in bytes: the capacity of every connection's record arena,
// filled or not (observability: what the replay log costs, not just how
// deep it is). Each log's newest proposal (logTip) is the logged LSA's
// own tree, shared by pointer, and is not counted.
func (m *Machine) EventLogBytes() int {
	total := 0
	for _, cs := range m.conns {
		total += cs.logBytes()
	}
	return total
}

// CompactEventLogs trims every connection's event log to nothing, now —
// what logEvent does to all but the newest EventLogRetain entries of a
// full log, done to all of it. Retention only decides how much is
// replayed rather than caught up, never what a resyncing neighbor ends up
// knowing, so a switch may do this at any moment; the schedule explorer
// makes that moment a choice point.
func (m *Machine) CompactEventLogs() {
	for _, cs := range m.conns {
		cs.trimLog(0)
	}
}

// GapBufferDepth returns the number of event LSAs currently buffered out of
// per-origin order across every connection (observability: a sustained
// non-zero depth means losses are outrunning gap recovery).
func (m *Machine) GapBufferDepth() int {
	total := 0
	for _, cs := range m.conns {
		total += cs.oooCount
	}
	return total
}
