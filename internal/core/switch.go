package core

import (
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/lsr"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func switchID(x int) topo.SwitchID { return topo.SwitchID(x) }

// Switch is one simulated network switch running the D-GMC protocol: the
// runtime-agnostic state machine (Machine) plus the simulation adapter that
// drives it — the two protocol entities (EventHandler and ReceiveLSA) as
// receivers on their mailboxes, virtual-time compute costs, and the
// flood.Network fabric. It implements Host. The live runtime equivalent is
// internal/rt.Node, driving the exact same Machine.
type Switch struct {
	id     topo.SwitchID
	d      *Domain
	m      *Machine
	events *sim.Mailbox
}

func newSwitch(d *Domain, id topo.SwitchID) (*Switch, error) {
	s := &Switch{
		id:     id,
		d:      d,
		events: sim.NewMailbox(d.k),
	}
	m, err := NewMachine(MachineConfig{
		ID:                  id,
		Graph:               d.net.Graph(),
		Algorithm:           d.algorithm,
		Kinds:               d.kinds,
		ReoptimizeThreshold: d.reoptThresh,
		Resync:              d.resyncAfter > 0,
		ResyncMaxRounds:     d.resyncMax,
		Metrics:             d.metrics,
	}, s)
	if err != nil {
		return nil, err
	}
	s.m = m
	s.events.OnDeliver(func() { s.serve(EventHandler) })
	d.net.Mailbox(id).OnDeliver(func() { s.serve(ReceiveLSA) })
	return s, nil
}

// ID returns the switch's network ID.
func (s *Switch) ID() topo.SwitchID { return s.id }

// Machine returns the switch's protocol state machine.
func (s *Switch) Machine() *Machine { return s.m }

// Unicast returns the switch's LSR instance (its local network image).
func (s *Switch) Unicast() *lsr.Instance { return s.m.Unicast() }

// Connection returns a snapshot of the switch's state for conn, or ok=false
// if the switch holds no state for it.
func (s *Switch) Connection(conn lsa.ConnID) (Snapshot, bool) {
	return s.m.Connection(conn)
}

// Connections lists the IDs of live (non-dormant) connections at this
// switch.
func (s *Switch) Connections() []lsa.ConnID { return s.m.Connections() }

// serve runs entity e on what its mailbox holds for as long as e is idle:
// EventHandler begins one local event at a time, ReceiveLSA drains its
// inbox into one batch. It is each mailbox's OnDeliver receiver, so a busy
// entity leaves deliveries queued; compute calls serve again when the
// computation ends.
func (s *Switch) serve(e Entity) {
	for !s.m.Computing(e) {
		var pending bool
		if e == EventHandler {
			msg, ok := s.events.TryRecv()
			if !ok {
				return
			}
			ev, ok := msg.(LocalEvent)
			if !ok {
				continue
			}
			pending = s.m.BeginLocalEvent(ev)
		} else {
			batch := s.d.net.Mailbox(s.id).Drain()
			if len(batch) == 0 {
				return
			}
			pending = s.m.BeginReceive(batch)
		}
		s.compute(e, pending)
	}
}

// compute charges the cost of each topology computation e has pending (the
// paper's Tc): the completion runs Tc of virtual time later while the
// switch's other entity runs on — exactly the window the protocol's
// withdraw checks exist for — and then e serves what queued meanwhile.
// With Tc zero it completes inline.
func (s *Switch) compute(e Entity, pending bool) {
	if s.d.computeTime == 0 {
		for pending {
			pending = s.m.Complete(e)
		}
		return
	}
	if pending {
		s.d.k.Schedule(s.d.computeTime, func() {
			s.compute(e, s.m.Complete(e))
			s.serve(e)
		})
	}
}

// --- Host implementation (simulation runtime) ---

var _ Host = (*Switch)(nil)

// FloodMC implements Host: flood an MC LSA over the fabric, on the wire
// when the domain is configured to encode advertisements.
func (s *Switch) FloodMC(m *lsa.MC) {
	if s.d.encodeLSAs {
		s.d.net.Flood(s.id, m.Marshal())
		return
	}
	s.d.net.Flood(s.id, m)
}

// FloodNonMC implements Host.
func (s *Switch) FloodNonMC(nm *lsa.NonMC) {
	if s.d.encodeLSAs {
		s.d.net.Flood(s.id, nm.Marshal())
		return
	}
	s.d.net.Flood(s.id, nm)
}

// SendUnicast implements Host: resync traffic rides the fabric's neighbor
// unicast service.
func (s *Switch) SendUnicast(to topo.SwitchID, payload any) {
	s.d.net.Unicast(s.id, to, payload)
}

// PendingMC implements Host: report whether the switch's mailbox currently
// holds an MC LSA for conn (Figure 5 line 22).
func (s *Switch) PendingMC(conn lsa.ConnID) bool {
	for _, raw := range s.d.net.Mailbox(s.id).Snapshot() {
		del, ok := raw.(flood.Delivery)
		if !ok {
			continue
		}
		payload := del.Payload
		if wire, ok := payload.([]byte); ok {
			mc, _, err := lsa.Unmarshal(wire)
			if err != nil || mc == nil {
				continue
			}
			payload = mc
		}
		if m, ok := payload.(*lsa.MC); ok && m.Conn == conn {
			return true
		}
	}
	return false
}

// Neighbors implements Host.
func (s *Switch) Neighbors() []topo.SwitchID {
	return s.d.net.Graph().Neighbors(s.id)
}

// FabricLinkChanged implements Host: mirror a locally detected link event
// into the shared fabric graph so floods route around the failure.
func (s *Switch) FabricLinkChanged(change lsa.LinkChange) {
	if err := s.d.net.Graph().SetLinkDown(change.A, change.B, change.Down); err != nil {
		s.d.trace(TraceError, ChainID{}, s.id, 0, "fabric: %v", err)
	}
}

// ArmResync implements Host: schedule the machine's gap check after the
// domain's resync timeout of virtual time.
func (s *Switch) ArmResync(conn lsa.ConnID) {
	s.d.k.Schedule(s.d.resyncAfter, func() { s.m.ResyncFired(conn) })
}

// SelfNudge implements Host: deliver a ResyncNudge through the switch's
// own LSA mailbox.
func (s *Switch) SelfNudge(conn lsa.ConnID) {
	s.d.net.Mailbox(s.id).Send(ResyncNudge{Conn: conn}, 0)
}

// NoteInstall implements Host.
func (s *Switch) NoteInstall() { s.d.noteInstall() }

// ForwardingChanged implements Host. The simulator has no live data plane —
// its delivery model (internal/deliver) reads installed topologies directly.
func (s *Switch) ForwardingChanged(lsa.ConnID) {}

// Trace implements Host.
func (s *Switch) Trace(kind TraceKind, chain ChainID, conn lsa.ConnID, format string, args ...any) {
	s.d.trace(kind, chain, s.id, conn, format, args...)
}

// TraceEnabled implements Host.
func (s *Switch) TraceEnabled() bool { return s.d.tracer != nil }
