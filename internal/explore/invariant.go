package explore

import (
	"fmt"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// This file defines the checked properties.
//
// Per-state invariants (checkStep) must hold after every transition:
//
//   - Vector bounds: R ≤ E and C ≤ E at every switch. (C ≤ R is NOT an
//     invariant: an accepted proposal's stamp can cover events the local
//     switch still holds buffered out of order, so C can transiently run
//     ahead of R.)
//   - Origin authority: R[x] and E[x] at any switch never exceed R[x] at
//     switch x itself — event counters originate at x and flow outward,
//     so nobody can know of more x-events than x has issued.
//
//   - Exchange completeness: whenever a resync request is delivered, the
//     exchange it starts — run to the end on copies of both switches, with
//     nothing else happening — leaves the requester's R at or above the
//     server's, per connection asked about. A server may answer from its
//     retained log or from its counters and member list (a catch-up), and
//     may have trimmed that log at any moment; what it may not do is leave
//     the requester short of anything it holds itself. Convergence checks
//     cannot see that omission: parked frames released by a heal deliver
//     every event anyway, and after a crash a switch that gave up still
//     gapped is within the lossy standard. Checked from the schedule's
//     first compact operation on — until then every log is whole.
//
// Quiescent invariants (checkQuiescent) must hold whenever no action is
// enabled:
//
//   - No entity is still computing (a pending computation is an enabled
//     action, so this guards the harness itself).
//   - core.CheckAgreement over the fabric as it stands: the verdict
//     Domain.CheckConverged and the live cluster's CheckAgreement give,
//     on the production machines. Within each fabric component every
//     switch agrees on the committed stamp, member list and installed
//     topology; maximum-size components have also settled (R == E == C:
//     no lost events, no lost proposal-wakeups) on a valid tree over the
//     members reachable in them. Minority fragments may hold legitimately
//     stale state — the paper defers partition recovery — and are checked
//     for internal agreement only.
//   - Event conservation: each switch's own event counter covers every
//     membership event the scenario injected there (nothing vanished
//     before reaching the protocol).
//
// Schedules on which the explorer chose a Drop are held to a weaker
// quiescent standard. The paper assumes reliable flooding, and the
// simulator's fabric repairs per-hop losses by retransmission; a
// permanently lost LSA is therefore outside the protocol's guarantee, and
// a switch that never hears anything revealing the gap (its R still equals
// its E) legitimately ends divergent. What gap recovery does promise —
// and what lossy schedules check — is that no switch ends silently
// wedged: any connection still gapped (R < E, buffered out-of-order
// arrivals, or a lagging commit) must have exhausted its resync round
// budget, never stalled with rounds to spare and no timer armed (a lost
// wakeup). Event conservation is checked in both modes.

// Violation is an invariant failure found during exploration.
type Violation struct {
	// Err describes the failed invariant.
	Err error
	// Schedule is the choice sequence that reaches the failure from the
	// initial world (clamped indices; see World.applyIndex).
	Schedule []int
	// Token replays this violation via `dgmccheck -replay`.
	Token string
	// Trace is the human-readable action/protocol trace of the replay.
	Trace []string
	// Quiescent reports whether the failure is a quiescent-state property
	// (as opposed to a per-step one).
	Quiescent bool
}

func (v *Violation) Error() string {
	if v == nil {
		return "<nil>"
	}
	return v.Err.Error()
}

// checkStep verifies the per-state invariants.
func (w *World) checkStep() error {
	if w.exchangeErr != nil {
		return w.exchangeErr
	}
	// Origin-authoritative event counts: own[x] = R[x] at switch x.
	own := make(map[lsa.ConnID][]uint32)
	for s, m := range w.machines {
		for _, conn := range m.AllConnections() {
			snap, _ := m.Connection(conn)
			counts := own[conn]
			if counts == nil {
				counts = make([]uint32, w.n)
				own[conn] = counts
			}
			if s < len(snap.R) {
				counts[s] = snap.R[s]
			}
		}
	}
	// A crash resets the origin's live counter; the authority bound is the
	// most events the origin EVER issued (high-water marks captured at
	// crash time), not its current, possibly still-recovering count.
	for conn, hw := range w.ownHigh {
		counts := own[conn]
		if counts == nil {
			counts = make([]uint32, w.n)
			own[conn] = counts
		}
		for x := range hw {
			if hw[x] > counts[x] {
				counts[x] = hw[x]
			}
		}
	}
	for s, m := range w.machines {
		for _, conn := range m.AllConnections() {
			snap, _ := m.Connection(conn)
			if !snap.E.Geq(snap.R) {
				return fmt.Errorf("switch %d conn %d: R exceeds E: R=%s E=%s", s, conn, snap.R, snap.E)
			}
			if !snap.E.Geq(snap.C) {
				return fmt.Errorf("switch %d conn %d: C exceeds E: C=%s E=%s", s, conn, snap.C, snap.E)
			}
			counts := own[conn]
			for x := 0; x < w.n && x < len(snap.R); x++ {
				if snap.R[x] > counts[x] {
					return fmt.Errorf("switch %d conn %d: R[%d]=%d exceeds origin's own count %d",
						s, conn, x, snap.R[x], counts[x])
				}
				if snap.E[x] > counts[x] {
					return fmt.Errorf("switch %d conn %d: E[%d]=%d exceeds origin's own count %d",
						s, conn, x, snap.E[x], counts[x])
				}
			}
		}
	}
	return nil
}

// checkExchange runs the resync exchange that req starts at server on
// copies of both ends and verifies exchange completeness (see the file
// comment). Called with the server still in its pre-delivery state.
func (w *World) checkExchange(server topo.SwitchID, req *lsa.ResyncRequest) error {
	if !w.compacted() {
		// Logs only lose entries to a compact operation here (no scenario
		// is long enough to fill one), and a switch holding its whole log
		// replays from it exactly as before there was anything to trim:
		// worlds without a compaction pay nothing for this invariant.
		return nil
	}
	if len(req.R) > 0 {
		// A request can outlive its sender: the blank machine that replaced
		// a crashed requester never held the R this one advertises, and the
		// answer is only complete on top of it.
		if cur, ok := w.machines[req.From].Connection(req.Conn); !ok || !cur.R.Geq(req.R) {
			return nil
		}
	}
	var answers sandboxHost
	srv := w.machines[server].CloneWith(&answers)
	srv.ReceiveBatch(nil, []any{req})
	asker := w.machines[req.From].CloneWith(&sandboxHost{})
	// The answers wait in the asker's queue for as long as it computes.
	for asker.Complete(core.ReceiveLSA) {
	}
	asker.ReceiveBatch(nil, answers.unicasts)
	for _, conn := range srv.AllConnections() {
		if req.Conn != lsa.AllConns && req.Conn != conn {
			continue
		}
		held, _ := srv.Connection(conn)
		got, ok := asker.Connection(conn)
		if held.R.Sum() > 0 && !(ok && got.R.Geq(held.R)) {
			return fmt.Errorf("switch %d conn %d: resync exchange with switch %d is incomplete: it would leave R=%s where the server holds R=%s",
				req.From, conn, server, got.R, held.R)
		}
	}
	return nil
}

// compacted reports whether a compact operation has fired: from then on a
// switch may hold a log shorter than its history, its own or — once it has
// applied a catch-up — a peer's.
func (w *World) compacted() bool {
	for _, op := range w.scn.Faults[:w.faultPos] {
		if op.Kind == FaultCompact {
			return true
		}
	}
	return false
}

// sandboxHost is the Host of a machine copy that runs outside the world:
// it records unicasts (the answers to a resync request) and swallows
// everything else.
type sandboxHost struct {
	core.NopHost
	unicasts []any
}

func (h *sandboxHost) SendUnicast(_ topo.SwitchID, payload any) {
	h.unicasts = append(h.unicasts, payload)
}

// lossyStandard reports whether this schedule's history downgrades it to
// the weakened quiescent standard. Crashes, like budgeted drops,
// legitimately lose information (frames queued at the dead switch, events
// a blank restart finds no holder for), so any schedule containing either
// is held to the lossy standard. Pure split/heal schedules lose nothing
// heal reconciliation cannot replay and keep the strict standard.
func (w *World) lossyStandard() bool {
	return w.dropsLeft < w.cfg.MaxDrops || w.crashedEver
}

// checkQuiescent verifies the consensus invariants. Call only when no
// action is enabled.
func (w *World) checkQuiescent() error {
	for s, m := range w.machines {
		for _, e := range entities {
			if m.Computing(e) {
				return fmt.Errorf("quiescent: switch %d %s computation still pending", s, e)
			}
		}
	}
	if w.lossyStandard() {
		return w.checkQuiescentLossy()
	}
	if err := core.CheckAgreement(w.graph, w.views()); err != nil {
		return fmt.Errorf("quiescent: %w", err)
	}
	return w.checkEventConservation()
}

// checkQuiescentLossy is the weakened quiescent check for schedules that
// permanently dropped at least one message (see the file comment): no
// switch may end silently wedged mid-recovery.
func (w *World) checkQuiescentLossy() error {
	for s, m := range w.machines {
		for _, conn := range m.AllConnections() {
			if m.Gapped(conn) && !m.ResyncGaveUp(conn) {
				snap, _ := m.Connection(conn)
				return fmt.Errorf("quiescent: switch %d conn %d wedged mid-recovery with resync rounds to spare: R=%s E=%s C=%s",
					s, conn, snap.R, snap.E, snap.C)
			}
		}
	}
	return w.checkEventConservation()
}

// views presents the world's machines to core.CheckAgreement.
func (w *World) views() []core.View {
	views := make([]core.View, len(w.machines))
	for i, m := range w.machines {
		views[i] = m
	}
	return views
}

// checkEventConservation verifies that every membership event the scenario
// injected is reflected in the injecting switch's own event counter (a
// lost event would leave R[x] at switch x below the number of events the
// world handed it).
func (w *World) checkEventConservation() error {
	for conn, counts := range w.injectedMembership {
		for s := 0; s < w.n; s++ {
			if counts[s] == 0 {
				continue
			}
			// A switch that crashed may legitimately have lost events it
			// originated but had not replicated before dying.
			if w.crashedOnce[s] {
				continue
			}
			snap, ok := w.machines[s].Connection(conn)
			if !ok {
				return fmt.Errorf("quiescent: conn %d: switch %d lost all state despite %d injected events",
					conn, s, counts[s])
			}
			if s < len(snap.R) && snap.R[s] < uint32(counts[s]) {
				return fmt.Errorf("quiescent: conn %d: switch %d own event count R[%d]=%d below %d injected events",
					conn, s, s, snap.R[s], counts[s])
			}
		}
	}
	return nil
}
