package core

import (
	"fmt"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// The machine asks its runtime nothing: what it needs to know comes in as
// arguments (the neighbor list of ResyncFired and RequestFullResync, line
// 22's "still queued?" answer of Complete), and what it needs done goes out
// as effects the host drains after each call, so nothing the host does can
// reach back into the call that asked.

// EffectKind names what an Effect asks of the host.
type EffectKind uint8

const (
	EffectFloodMC    EffectKind = iota + 1 // flood MC network-wide
	EffectFloodNonMC                       // flood NonMC, a unicast link-state LSA
	// EffectUnicast sends Payload, an *lsa.ResyncRequest or
	// *lsa.ResyncResponse, point-to-point to neighbor To.
	EffectUnicast
	// EffectArmResync asks for ResyncFired(Conn, …) once after the host's
	// resync timeout (only with MachineConfig.Resync).
	EffectArmResync
	// EffectSelfNudge delivers ResyncNudge{Conn} to the switch's own receive
	// path: a later ReceiveBatch, which the live node runs within its step.
	EffectSelfNudge
	EffectNoteInstall // a topology was installed (convergence bookkeeping)
	// EffectForwardingChanged reports that Conn's forwarding state (installed
	// topology, membership or dormancy) may have changed or, with Conn ==
	// lsa.AllConns, that the unicast image did. A host with a data plane
	// recompiles its FIB from ForwardingState once the list is drained.
	EffectForwardingChanged
	// EffectFabricLinkChanged reports that local link event Link was applied:
	// hosts that share one fabric graph mirror it there so floods route
	// around the failure.
	EffectFabricLinkChanged
	EffectTrace // Trace observes one protocol step; a host that does not trace skips it
)

// Effect is one thing a machine call asks of its host; Kind says which
// fields are set. It holds values and objects the protocol never modifies
// (flooded LSAs, resync messages, installed trees), never a reference to
// state the machine changes later.
type Effect struct {
	Kind    EffectKind
	Conn    lsa.ConnID
	To      topo.SwitchID
	Link    lsa.LinkChange
	MC      *lsa.MC
	NonMC   *lsa.NonMC
	Payload any
	Trace   TraceRecord
}

// Effects returns what the machine's calls since the last ClearEffects
// asked of the host, in order. The slice is the machine's own: act on it,
// then ClearEffects, before the next call.
func (m *Machine) Effects() []Effect { return m.fx }

// ClearEffects empties the effect list, keeping its array for the next
// call but none of the LSAs, messages or trees it held.
func (m *Machine) ClearEffects() {
	clear(m.fx)
	m.fx = m.fx[:0]
}

// SwapEffects empties the effect list and gives the machine buf's array
// for it, returning the array it had. A host of many machines, none busy
// between calls, lends one array from call to call instead of each
// machine keeping its own.
func (m *Machine) SwapEffects(buf []Effect) []Effect {
	m.ClearEffects()
	old := m.fx
	m.fx = buf[:0]
	return old
}

func (m *Machine) emit(e Effect) { m.fx = append(m.fx, e) }

func (m *Machine) trace(r TraceRecord) { m.emit(Effect{Kind: EffectTrace, Trace: r}) }

// traceSite names which of the machine's trace points a record comes from,
// and so how Detail renders it.
type traceSite uint8

const (
	trDestroyed traceSite = iota + 1
	trError
	trEventWithdrawn
	trTriggeredWithdrawn
	trReoptimize
	trLocalEvent
	trRecv
	trComputing
	trFlood
	trInstalled
	trBuffered
	trRearm
	trGiveUp
	trCommitLag
	trRequest
	trReplay
	trReconcile
	trColdRejoin
)

// TraceRecord is one observed protocol step: its kind, causal chain and
// connection, and the values its text is rendered from. Those are copies
// (the R, E and C of the resync and heal records are stamp copies) or
// objects the protocol never modifies, so Detail renders the same text
// whenever it is called.
type TraceRecord struct {
	Kind  TraceKind
	site  traceSite
	Chain ChainID
	Conn  lsa.ConnID
	n     [3]uint32
	// v is the record's one other value: the LSA received or flooded, the
	// installed tree, the error, the re-optimization excess, or the R, E
	// and C copies (*[3]stamp.Stamp) of a resync or heal record.
	v any
}

// Detail renders the record's text.
func (r *TraceRecord) Detail() string {
	n := r.n
	st, _ := r.v.(*[3]stamp.Stamp)
	switch r.site {
	case trDestroyed:
		return "connection state destroyed"
	case trError:
		return fmt.Sprint(r.v)
	case trEventWithdrawn:
		return "event-handler proposal withdrawn"
	case trTriggeredWithdrawn:
		return "triggered proposal withdrawn"
	case trReoptimize:
		return fmt.Sprintf("re-optimizing (%.0f%% over fresh cost)", r.v)
	case trLocalEvent:
		return fmt.Sprintf("local %s event", lsa.Event(n[0]))
	case trRecv:
		return fmt.Sprintf("recv %s", r.v)
	case trComputing:
		return fmt.Sprintf("computing topology (members=%d)", n[0])
	case trFlood:
		return fmt.Sprintf("flood %s", r.v)
	case trInstalled:
		return fmt.Sprintf("installed %s via %s", r.v, Entity(n[0]))
	case trBuffered:
		return fmt.Sprintf("buffered out-of-order event from %d (idx %d, applied %d)", n[0], n[1], n[2])
	case trRearm:
		return fmt.Sprintf("new evidence after give-up: re-arming recovery (R=%s E=%s ooo=%d)", st[0], st[1], n[0])
	case trGiveUp:
		return fmt.Sprintf("giving up after %d resync rounds (R=%s E=%s C=%s)", n[0], st[0], st[1], st[2])
	case trCommitLag:
		return fmt.Sprintf("commit lag (R=%s C=%s): self-nudging a proposal (round %d)", st[0], st[2], n[0])
	case trRequest:
		return fmt.Sprintf("requesting resync from %d (round %d, R=%s E=%s ooo=%d)", n[0], n[1], st[0], st[1], n[2])
	case trReplay:
		return fmt.Sprintf("replaying %d LSAs to %d", n[0], n[1])
	case trReconcile:
		return fmt.Sprintf("reconciling with %d after heal (R=%s E=%s C=%s)", n[0], st[0], st[1], st[2])
	case trColdRejoin:
		return fmt.Sprintf("cold rejoin: requesting full resync from %d", n[0])
	default:
		return fmt.Sprintf("traceSite(%d)", r.site)
	}
}

// Entry renders the record as the TraceEntry switch sw observed at time at.
func (r *TraceRecord) Entry(at time.Duration, sw topo.SwitchID) TraceEntry {
	return TraceEntry{At: at, Kind: r.Kind, Switch: sw, Conn: r.Conn, Chain: r.Chain, Detail: r.Detail()}
}

// Host is what NewMachine replays a machine's MC floods into, for the
// benchmark's stand-alone machines only: after HandleLocalEvent and
// ReceiveBatch, each EffectFloodMC goes to FloodMC and the rest of the list
// is dropped. Every other caller passes nil and drains Effects itself. It
// goes with the benchmark's own stub host.
type Host interface {
	FloodMC(m *lsa.MC)
}

// replay hands the MC floods of the drained list to the machine's Host, if
// it was built with one.
func (m *Machine) replay() {
	if m.host == nil {
		return
	}
	for i := range m.fx {
		if m.fx[i].Kind == EffectFloodMC {
			m.host.FloodMC(m.fx[i].MC)
		}
	}
	m.ClearEffects()
}
