package core

import (
	"dgmc/internal/lsa"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// Gap recovery for lossy fabrics (the OSPF database-exchange analogue).
//
// The paper assumes flooding is perfectly reliable, so R (received) can
// never permanently trail E (expected). On a fabric that drops, duplicates,
// or reorders LSAs that assumption breaks in three ways, each handled here:
//
//  1. Duplicated or reordered event LSAs would corrupt the member list if
//     applied naively. applyEventLSA applies each origin's events strictly
//     in order, using the fact that an event LSA from switch x carries
//     Stamp[x] equal to x's per-connection event index: stale copies are
//     dropped, early arrivals buffered until the gap before them fills.
//
//  2. A lost event LSA leaves R < E (or events buffered out of order)
//     forever. When that persists past the host's resync timeout the switch
//     asks a neighbor to replay the per-origin suffixes beyond its R;
//     neighbors rotate across rounds so a single equally-gapped peer cannot
//     wedge recovery. The request's R also advertises the requester's
//     knowledge: the peer merges it into its own E, so gap detection is
//     symmetric.
//
//  3. A lost *proposal* flood leaves R = E but C behind on some switches —
//     the protocol is quiescent but unconverged. The replay response ends
//     with a pseudo-proposal (a triggered LSA carrying the peer's installed
//     topology at its committed stamp) so the requester can adopt the
//     topology it missed; and the requester independently nudges its own
//     ReceiveLSA with makeProposal set, so even a neighborhood of equally
//     wedged switches recomputes and floods a fresh proposal.
//
//  4. The log a replay is served from is a bounded suffix of history
//     (connState.logArena, EventLogRetain). An event from origin x writes
//     nothing but r[x] and members[x], so whatever lies below the suffix is
//     served from the state itself: one catch-up LSA per such origin,
//     built from (r[x], members[x]) and stamped with the server's R, in
//     place of x's events. The receiver fast-forwards r[x] on it; after
//     that it is an event LSA like any other — E merge, the owe-a-proposal
//     check, re-flood of replay-learned knowledge.
//
// Everything travels through the ordinary ReceiveLSA path and the ordinary
// acceptance rules (a proposal is accepted only if its stamp dominates E),
// so resync can never regress C or install a stale topology. Rounds are
// bounded by MachineConfig.ResyncMaxRounds to guarantee quiescence.
//
// The wire messages themselves (lsa.ResyncRequest, lsa.ResyncResponse) live
// in internal/lsa so live transports can frame them.

// applyEventLSA performs Figure 5 lines 5-9 under per-origin ordering and
// appends to out the LSAs the caller should continue processing: none for
// a stale or buffered copy, otherwise the LSA itself followed by any
// buffered successors it released (R advanced and membership applied for
// each). Non-event (triggered) LSAs pass through untouched. On a loss-free
// fabric every event arrives exactly once and in order, so this reduces to
// the paper's unconditional apply.
func (m *Machine) applyEventLSA(out []*lsa.MC, cs *connState, msg *lsa.MC) []*lsa.MC {
	if !msg.Event.IsEvent() {
		return append(out, msg)
	}
	src := msg.Src
	x := int(src)
	idx := msg.Stamp[x]
	if m.mutation == MutationIgnoreEventOrder {
		// Seeded bug (checker validation): trust the fabric never to
		// reorder or duplicate — apply every copy the moment it arrives,
		// with no stale-drop and no out-of-order buffering.
		if idx > cs.r[x] {
			cs.r[x] = idx
		}
		cs.applyMembership(msg.Event, x, msg.Role)
		cs.logEvent(msg)
		return append(out, msg)
	}
	switch {
	case idx <= cs.r[x]:
		// Already applied: a retransmitted, fault-duplicated, or replayed
		// copy. Its stamp was merged into E when the first copy arrived.
		return out
	case idx == cs.r[x]+1 || msg.Event == lsa.CatchUp:
		out = append(out, msg)
		if msg.Event == lsa.CatchUp {
			// Fast-forward over events this switch will never see: the
			// server no longer holds them. Whatever of them sits buffered
			// out of order is superseded, and nothing at or below idx can
			// be replayed from here either.
			cs.purgeBuffered(src, idx)
			cs.r[x] = idx
			cs.logFloor[x] = idx
			m.metrics.CatchUpsApplied++
		} else {
			cs.r.Inc(x)
		}
		cs.applyMembership(msg.Event, x, msg.Role)
		cs.logEvent(msg)
		// Applying this event may release buffered successors.
		for {
			next, ok := cs.takeBuffered(src, cs.r[x]+1)
			if !ok {
				break
			}
			cs.r.Inc(x)
			cs.applyMembership(next.Event, x, next.Role)
			cs.logEvent(next)
			out = append(out, next)
		}
		return out
	default:
		// Ahead of order: an intervening event from src is missing. Buffer
		// the LSA, but merge its stamp into E now — it is hard evidence the
		// missing events exist, and the R < E it creates is what arms gap
		// recovery.
		if cs.buffer(msg) {
			cs.e.MaxInPlace(msg.Stamp)
			m.metrics.OutOfOrderLSAs++
			m.trace(TraceRecord{Kind: TraceResync, Chain: chainOf(msg), Conn: cs.id, site: trBuffered,
				n: [3]uint32{uint32(src), uint32(idx), uint32(cs.r[x])}})
		}
		return out
	}
}

// maybeScheduleResync arms the gap-check timer for cs if resync is enabled,
// the connection currently looks gapped, and no check is already pending.
// Called after every EventHandler and ReceiveLSA invocation; a no-op when
// the connection is healthy (it then also resets the round budget, so each
// new gap starts fresh).
//
// A gap whose round budget is exhausted is terminal only while the state it
// gave up on persists: if R, E, or the out-of-order buffer has changed since
// the give-up — a late flood, a replay, a healed partition — that is new
// evidence, and recovery re-arms with a fresh budget instead of staying
// wedged forever.
func (m *Machine) maybeScheduleResync(cs *connState) {
	if !m.resync || cs.resyncScheduled {
		return
	}
	if !cs.gapped() {
		cs.clearGiveUp()
		return
	}
	if cs.resyncRounds > m.resyncMax {
		if cs.r.Equal(cs.gaveUpR) && cs.e.Equal(cs.gaveUpE) && cs.oooCount == cs.gaveUpOOO {
			return // same gap, no new evidence: stay terminal
		}
		cs.clearGiveUp()
		m.metrics.ResyncRearms++
		m.trace(TraceRecord{Kind: TraceResync, Conn: cs.id, site: trRearm,
			n: [3]uint32{uint32(cs.oooCount)}, v: &[3]stamp.Stamp{cs.r.Clone(), cs.e.Clone()}})
	}
	cs.resyncScheduled = true
	m.emit(Effect{Kind: EffectArmResync, Conn: cs.id})
}

// clearGiveUp resets the round budget and forgets the give-up signature
// (the gap healed, or new evidence restarted recovery).
func (cs *connState) clearGiveUp() {
	cs.resyncRounds = 0
	cs.gaveUpR = nil
	cs.gaveUpE = nil
	cs.gaveUpOOO = 0
}

// ResyncFired is the gap-check timer callback: the host calls it once per
// EffectArmResync, after its resync timeout has elapsed, with the switch's
// current direct neighbors (the candidates for a resync request). The
// hosting runtime must serialize it with every other Machine call.
func (m *Machine) ResyncFired(conn lsa.ConnID, neighbors []topo.SwitchID) {
	cs, ok := m.conns[conn]
	if !ok {
		return
	}
	cs.resyncScheduled = false
	m.resyncCheck(cs, neighbors)
}

// resyncCheck runs when the gap-check timer fires: if the gap healed in the
// meantime it does nothing; otherwise it spends one resync round on the
// appropriate recovery action and re-arms.
func (m *Machine) resyncCheck(cs *connState, nbs []topo.SwitchID) {
	if !cs.gapped() {
		cs.clearGiveUp()
		return
	}
	if cs.resyncRounds >= m.resyncMax {
		// Explicit terminal state: block further arming for this gap and
		// record the state we gave up on, so any later deviation from it
		// counts as new evidence and re-arms recovery.
		cs.resyncRounds = m.resyncMax + 1
		cs.gaveUpR = cs.r.Clone()
		cs.gaveUpE = cs.e.Clone()
		cs.gaveUpOOO = cs.oooCount
		m.metrics.ResyncGiveUps++
		m.trace(TraceRecord{Kind: TraceGiveUp, Conn: cs.id, site: trGiveUp,
			n: [3]uint32{uint32(m.resyncMax)}, v: &[3]stamp.Stamp{cs.gaveUpR, cs.gaveUpE, cs.c.Clone()}})
		return
	}
	cs.resyncRounds++
	if cs.oooCount == 0 && cs.r.Geq(cs.e) {
		// Only the commit lags: every event is applied but the accepted
		// proposal's flood was lost. Owe the network a proposal and nudge
		// ReceiveLSA so line 19 recomputes and floods a triggered one.
		cs.makeProposal = true
		m.trace(TraceRecord{Kind: TraceResync, Conn: cs.id, site: trCommitLag,
			n: [3]uint32{uint32(cs.resyncRounds)}, v: &[3]stamp.Stamp{cs.r.Clone(), nil, cs.c.Clone()}})
		m.emit(Effect{Kind: EffectSelfNudge, Conn: cs.id})
	} else if len(nbs) > 0 {
		nb := nbs[cs.resyncNext%len(nbs)]
		cs.resyncNext++
		m.metrics.ResyncRequests++
		req := &lsa.ResyncRequest{Conn: cs.id, From: m.id, R: cs.r.Clone()}
		m.trace(TraceRecord{Kind: TraceResync, Conn: cs.id, site: trRequest,
			n: [3]uint32{uint32(nb), uint32(cs.resyncRounds), uint32(cs.oooCount)}, v: &[3]stamp.Stamp{req.R, cs.e.Clone()}})
		m.emit(Effect{Kind: EffectUnicast, To: nb, Payload: req})
	}
	m.maybeScheduleResync(cs)
}

// handleResyncRequest serves a neighbor's resync request: send what the
// requester's R lacks (serveResync), close with a pseudo-proposal carrying
// the installed topology, and let the request's R advertise any events the
// requester has seen that we have not. The wildcard lsa.AllConns serves
// every known connection — including dormant ones, whose counters, floors
// and logs survive dormancy — which is how a restarted switch with no state
// at all rebuilds from a neighbor: one catch-up per origin whose early
// events were trimmed and the events of the others, however long the
// connection has lived.
func (m *Machine) handleResyncRequest(req *lsa.ResyncRequest) {
	if req.Conn == lsa.AllConns {
		for _, id := range m.AllConnections() {
			m.serveResync(m.conns[id], req.From, req.R)
		}
		return
	}
	cs := m.conn(req.Conn)
	m.serveResync(cs, req.From, req.R)
	m.maybeScheduleResync(cs) // the E merge may have revealed our own gap
}

// serveResync answers a resync request advertising received stamp r (an
// empty or short r reads as all-zeros: send everything) and merges r into E,
// making gap detection symmetric. Per origin x the requester is missing
// x's events in (r[x], cs.r[x]]: if the log still holds all of them they
// are replayed in application order; if any lies at or below the log's
// floor for x, one catch-up LSA carrying (cs.r[x], members[x]) replaces
// them all. Catch-ups lead the batch, so the E merge on the requester's
// side sees this switch's whole R before it weighs any replayed proposal.
func (m *Machine) serveResync(cs *connState, from topo.SwitchID, r stamp.Stamp) {
	if len(r) == len(cs.e) {
		cs.e.MaxInPlace(r)
	}
	rAt := func(x int) uint32 {
		if x >= 0 && x < len(r) {
			return r[x]
		}
		return 0
	}
	// Skipping the catch-ups and replaying whatever suffix survives is the
	// seeded-bug site for MutationTruncateWithoutCatchUp (checker
	// validation): the requester buffers the suffix behind a hole nobody
	// can fill.
	belowFloor := func(x int) bool {
		return rAt(x) < cs.logFloor[x] && m.mutation != MutationTruncateWithoutCatchUp
	}
	var batch []*lsa.MC
	var have stamp.Stamp // one read-only copy of R shared by this batch's catch-ups
	for x := range cs.logFloor {
		if !belowFloor(x) {
			continue
		}
		if have == nil {
			have = cs.r.Clone()
		}
		batch = append(batch, &lsa.MC{
			Src: switchID(x), Event: lsa.CatchUp, Role: cs.members[switchID(x)],
			Conn: cs.id, Stamp: have,
		})
	}
	m.metrics.CatchUpsServed += uint64(len(batch))
	batch = cs.appendReplay(batch, func(x int, idx uint32) bool {
		return idx > rAt(x) && !belowFloor(x)
	})
	if cs.topology != nil {
		// The capstone must carry C — the stamp the topology was actually
		// committed at. Stamping it with E is the seeded-bug site for
		// MutationUncappedPseudoProposal (checker validation): post-heal E
		// dominates the requester's expectations, so a stale tree would be
		// accepted over fresher ones.
		capStamp := cs.c.Clone()
		if m.mutation == MutationUncappedPseudoProposal {
			capStamp = cs.e.Clone()
		}
		batch = append(batch, &lsa.MC{
			Src: m.id, Event: lsa.None, Conn: cs.id,
			Proposal: cs.topology, Stamp: capStamp,
		})
	}
	if len(batch) > 0 {
		m.metrics.ResyncResponses++
		m.trace(TraceRecord{Kind: TraceResync, Conn: cs.id, site: trReplay, n: [3]uint32{uint32(len(batch)), uint32(from)}})
		m.emit(Effect{Kind: EffectUnicast, To: from, Payload: &lsa.ResyncResponse{Conn: cs.id, From: m.id, Batch: batch}})
	}
}

// ResumeTimers re-arms the gap-check timer for every connection that had
// one pending when the machine's state was captured: a snapshot taken with
// resyncScheduled set carries the flag, but the timer itself died with the
// old runtime, and nothing else would ever call ResyncFired for that gap
// again. Call once after restoring a machine into a new runtime.
func (m *Machine) ResumeTimers() {
	if !m.resync {
		return
	}
	for _, id := range m.AllConnections() {
		if m.conns[id].resyncScheduled {
			m.emit(Effect{Kind: EffectArmResync, Conn: id})
		}
	}
}

// ReconcileNeighbor starts heal reconciliation with nb: for every known
// connection, send nb a resync request advertising this switch's R. The
// peer merges each R into its E (so it learns what we know that it does
// not) and replays its log suffix beyond it (so we learn what it knows).
// Called on both sides of a healed boundary, this converges the pair to
// the elementwise-max event set; replayed events are then re-flooded
// (see receiveLSA), so knowledge recovered at the boundary propagates to
// the interior of each former partition side as ordinary flooding.
//
// The hosting runtime must serialize this with every other Machine call.
func (m *Machine) ReconcileNeighbor(nb topo.SwitchID) {
	for _, id := range m.AllConnections() {
		cs := m.conns[id]
		m.metrics.Reconciles++
		m.metrics.ResyncRequests++
		req := &lsa.ResyncRequest{Conn: cs.id, From: m.id, R: cs.r.Clone()}
		m.trace(TraceRecord{Kind: TraceHeal, Conn: cs.id, site: trReconcile,
			n: [3]uint32{uint32(nb)}, v: &[3]stamp.Stamp{req.R, cs.e.Clone(), cs.c.Clone()}})
		m.emit(Effect{Kind: EffectUnicast, To: nb, Payload: req})
		m.maybeScheduleResync(cs)
	}
}

// RequestFullResync is the cold-rejoin path of a restarted switch: ask
// every current neighbor to replay everything it knows about every
// connection (the lsa.AllConns wildcard with an empty R). Duplicate
// replays from multiple neighbors are harmless — per-origin ordered apply
// drops already-applied copies — and asking all neighbors tolerates
// neighbors that themselves hold no state. Recovering the switch's own
// event counter before originating new events is what makes a restart
// safe: a fresh event flooded with a reset counter would be stale-dropped
// network-wide.
//
// neighbors are the switch's current direct neighbors. The hosting runtime
// must serialize this with every other Machine call.
func (m *Machine) RequestFullResync(neighbors []topo.SwitchID) {
	for _, nb := range neighbors {
		m.metrics.Reconciles++
		m.metrics.ResyncRequests++
		m.trace(TraceRecord{Kind: TraceHeal, Conn: lsa.AllConns, site: trColdRejoin, n: [3]uint32{uint32(nb)}})
		m.emit(Effect{Kind: EffectUnicast, To: nb, Payload: &lsa.ResyncRequest{Conn: lsa.AllConns, From: m.id, R: nil}})
	}
}
