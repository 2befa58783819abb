package core

import (
	"fmt"

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
// flood.Network fabric that carries out the machine's effects. The live
// runtime equivalent is internal/rt.Node, driving the exact same Machine.
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
	}, nil)
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
			pending = s.m.BeginReceive(s.unwrapAll(batch))
		}
		s.drain()
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
			pending = s.complete(e)
		}
		return
	}
	if pending {
		s.d.k.Schedule(s.d.computeTime, func() {
			s.compute(e, s.complete(e))
			s.serve(e)
		})
	}
}

// complete finishes e's pending computation, answering Figure 5 line 22
// from the switch's mailbox, and carries out what it asked for.
func (s *Switch) complete(e Entity) bool {
	queued := e == ReceiveLSA && s.mcQueued(s.m.ComputingConn(e))
	pending := s.m.Complete(e, queued)
	s.drain()
	return pending
}

// mcQueued reports whether the switch's mailbox holds a flooded MC LSA for
// conn, in memory or on the wire.
func (s *Switch) mcQueued(conn lsa.ConnID) bool {
	for _, raw := range s.d.net.Mailbox(s.id).Snapshot() {
		msg, _ := unwrap(raw)
		if mc, ok := msg.(*lsa.MC); ok && mc.Conn == conn {
			return true
		}
	}
	return false
}

// unwrapAll rewrites a drained mailbox batch, in place, into the protocol
// messages the machine takes, dropping and tracing each LSA that does not
// decode.
func (s *Switch) unwrapAll(batch []any) []any {
	msgs := batch[:0]
	for _, raw := range batch {
		msg, err := unwrap(raw)
		if err != nil {
			if s.d.tracer != nil {
				s.d.tracer.Trace(TraceEntry{At: s.d.k.Now(), Kind: TraceError, Switch: s.id, Detail: err.Error()})
			}
			continue
		}
		msgs = append(msgs, msg)
	}
	clear(batch[len(msgs):])
	return msgs
}

// unwrap returns the protocol message a mailbox entry carries: a flood's
// or a unicast's payload, with a wire-encoded LSA decoded. Anything else (a
// ResyncNudge) is its own message.
func unwrap(raw any) (any, error) {
	switch v := raw.(type) {
	case flood.Unicast:
		return v.Payload, nil
	case flood.Delivery:
		wire, ok := v.Payload.([]byte)
		if !ok {
			return v.Payload, nil
		}
		mc, nm, err := lsa.Unmarshal(wire)
		if err != nil {
			return nil, fmt.Errorf("decode LSA: %w", err)
		}
		if mc != nil {
			return mc, nil
		}
		return nm, nil
	}
	return raw, nil
}

// drain carries out, in order, what the machine's last call asked for, on
// the fabric, the kernel and the shared fabric graph. The simulator has no
// live data plane — its delivery model (internal/deliver) reads installed
// topologies directly — so forwarding changes need nothing.
func (s *Switch) drain() {
	d := s.d
	for _, e := range s.m.Effects() {
		switch e.Kind {
		case EffectFloodMC, EffectFloodNonMC:
			var adv interface{ Marshal() []byte } = e.MC
			if e.Kind == EffectFloodNonMC {
				adv = e.NonMC
			}
			if d.encodeLSAs {
				d.net.Flood(s.id, adv.Marshal())
			} else {
				d.net.Flood(s.id, adv)
			}
		case EffectUnicast:
			d.net.Unicast(s.id, e.To, e.Payload)
		case EffectArmResync:
			conn := e.Conn
			d.k.Schedule(d.resyncAfter, func() {
				s.m.ResyncFired(conn, d.net.Graph().Neighbors(s.id))
				s.drain()
			})
		case EffectSelfNudge:
			d.net.Mailbox(s.id).Send(ResyncNudge{Conn: e.Conn}, 0)
		case EffectNoteInstall:
			d.noteInstall()
		case EffectFabricLinkChanged:
			if err := d.net.Graph().SetLinkDown(e.Link.A, e.Link.B, e.Link.Down); err != nil && d.tracer != nil {
				d.tracer.Trace(TraceEntry{At: d.k.Now(), Kind: TraceError, Switch: s.id, Detail: fmt.Sprintf("fabric: %v", err)})
			}
		case EffectTrace:
			if d.tracer != nil {
				d.tracer.Trace(e.Trace.Entry(d.k.Now(), s.id))
			}
		}
	}
	s.m.ClearEffects()
}
