package explore

import (
	"fmt"
	"slices"

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
	for s, sl := range w.slots {
		for _, conn := range sl.m.AllConnections() {
			r, _, _, _ := sl.m.Stamps(conn)
			counts := own[conn]
			if counts == nil {
				counts = make([]uint32, w.n)
				own[conn] = counts
			}
			if s < len(r) {
				counts[s] = r[s]
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
	for s, sl := range w.slots {
		for _, conn := range sl.m.AllConnections() {
			r, e, c, _ := sl.m.Stamps(conn)
			if !e.Geq(r) {
				return fmt.Errorf("switch %d conn %d: R exceeds E: R=%s E=%s", s, conn, r, e)
			}
			if !e.Geq(c) {
				return fmt.Errorf("switch %d conn %d: C exceeds E: C=%s E=%s", s, conn, c, e)
			}
			counts := own[conn]
			for x := 0; x < w.n && x < len(r); x++ {
				if r[x] > counts[x] {
					return fmt.Errorf("switch %d conn %d: R[%d]=%d exceeds origin's own count %d",
						s, conn, x, r[x], counts[x])
				}
				if e[x] > counts[x] {
					return fmt.Errorf("switch %d conn %d: E[%d]=%d exceeds origin's own count %d",
						s, conn, x, e[x], counts[x])
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
	if !w.lane().compacted {
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
		if r, _, _, ok := w.slots[req.From].m.Stamps(req.Conn); !ok || !r.Geq(req.R) {
			return nil
		}
	}
	srv := w.slots[server].m.Clone()
	srv.ReceiveBatch(nil, []any{req})
	var answers []any
	for _, e := range srv.Effects() {
		if e.Kind == core.EffectUnicast {
			answers = append(answers, e.Payload)
		}
	}
	asker := w.slots[req.From].m.Clone()
	// The answers wait in the asker's queue for as long as it computes.
	for asker.Complete(core.ReceiveLSA, false) {
	}
	asker.ReceiveBatch(nil, answers)
	for _, conn := range srv.AllConnections() {
		if req.Conn != lsa.AllConns && req.Conn != conn {
			continue
		}
		held, _, _, _ := srv.Stamps(conn)
		got, _, _, ok := asker.Stamps(conn)
		if held.Sum() > 0 && !(ok && got.Geq(held)) {
			return fmt.Errorf("switch %d conn %d: resync exchange with switch %d is incomplete: it would leave R=%s where the server holds R=%s",
				req.From, conn, server, got, held)
		}
	}
	return nil
}

// lossyStandard reports whether this schedule's history downgrades it to
// the weakened quiescent standard. Crashes, like budgeted drops,
// legitimately lose information (frames queued at the dead switch, events
// a blank restart finds no holder for), so any schedule containing either
// is held to the lossy standard. Pure split/heal schedules lose nothing
// heal reconciliation cannot replay and keep the strict standard.
func (w *World) lossyStandard() bool {
	return w.dropsLeft < w.cfg.MaxDrops || slices.Contains(w.lane().wiped, true)
}

// checkQuiescent verifies the consensus invariants. Call only when no
// action is enabled.
func (w *World) checkQuiescent() error {
	for s, sl := range w.slots {
		for _, e := range entities {
			if sl.m.Computing(e) {
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
	for s, sl := range w.slots {
		for _, conn := range sl.m.AllConnections() {
			if sl.m.Gapped(conn) && !sl.m.ResyncGaveUp(conn) {
				r, e, c, _ := sl.m.Stamps(conn)
				return fmt.Errorf("quiescent: switch %d conn %d wedged mid-recovery with resync rounds to spare: R=%s E=%s C=%s",
					s, conn, r, e, c)
			}
		}
	}
	return w.checkEventConservation()
}

// views presents the world's machines to core.CheckAgreement.
func (w *World) views() []core.View {
	views := make([]core.View, len(w.slots))
	for i := range w.slots {
		views[i] = w.slots[i].m
	}
	return views
}

// checkEventConservation verifies that every membership event the scenario
// injected is reflected in the injecting switch's own event counter (a
// lost event would leave R[x] at switch x below the number of events the
// world handed it).
func (w *World) checkEventConservation() error {
	for s := 0; s < w.n; s++ {
		// A switch that crashed may legitimately have lost events it
		// originated but had not replicated before dying.
		if w.lane().wiped[s] {
			continue
		}
		// The membership events fired at s so far, per connection.
		counts := make(map[lsa.ConnID]uint32)
		for _, idx := range w.injectsBySwitch[s][:w.injectPos[s]] {
			if ev := w.scn.Injects[idx].Event; ev.Kind == lsa.Join || ev.Kind == lsa.Leave {
				counts[ev.Conn]++
			}
		}
		for conn, count := range counts {
			r, _, _, ok := w.slots[s].m.Stamps(conn)
			if !ok {
				return fmt.Errorf("quiescent: conn %d: switch %d lost all state despite %d injected events",
					conn, s, count)
			}
			if s < len(r) && r[s] < count {
				return fmt.Errorf("quiescent: conn %d: switch %d own event count R[%d]=%d below %d injected events",
					conn, s, s, r[s], count)
			}
		}
	}
	return nil
}
