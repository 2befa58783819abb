// Package lsa defines the link-state advertisements exchanged by the D-GMC
// protocol and the underlying unicast LSR protocol, mirroring §3.1 of the
// paper.
//
// Two advertisement types are distinguished by the flag F:
//
//   - an MC LSA is the tuple (S, F=mc, V, G, P, T): source switch S, event
//     V (join, leave, link, or none for triggered LSAs), connection ID G,
//     optional topology proposal P, and vector timestamp T;
//   - a non-MC LSA is the tuple (S, F=¬mc, D): source switch S and a
//     link/nodal event description D, processed by the unicast protocol.
package lsa

import (
	"encoding/binary"
	"fmt"

	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// ConnID identifies a multipoint connection (the paper's G).
type ConnID uint32

// AllConns is the wildcard connection ID used by a restarted switch's
// full-resync request: "replay every connection you know about". It is
// never a real connection — deployments derive connection IDs from group
// addresses, which cannot be all-ones — and it only ever appears in the
// Conn field of a ResyncRequest, whose codec passes any uint32 through.
const AllConns ConnID = ^ConnID(0)

// Event is the V field of an MC LSA.
type Event uint8

const (
	// None marks a triggered LSA: it may carry a proposal but no event.
	None Event = iota
	// Join announces that the source switch joined the connection.
	Join
	// Leave announces that the source switch left the connection.
	Leave
	// Link announces that a link/nodal event affected the connection's
	// topology (the companion non-MC LSA carries the details).
	Link
	// CatchUp stands in for every event of the source switch up to and
	// including its Stamp[Src]-th: an event from S writes nothing but S's
	// counter and S's entry in the member list, so a switch that no longer
	// holds S's old events answers a resync request with where they led —
	// the counter in Stamp[Src] and the membership in Role (zero: S is not
	// a member). Never originated by a local event and never carries a
	// proposal; Stamp is the answering switch's received stamp.
	CatchUp
)

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case None:
		return "none"
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Link:
		return "link"
	case CatchUp:
		return "catch-up"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// Valid reports whether e is a defined event kind.
func (e Event) Valid() bool { return e <= CatchUp }

// IsEvent reports whether the LSA advertises an event (V ≠ none). Only
// event LSAs advance received timestamps.
func (e Event) IsEvent() bool { return e != None }

// MC is an MC LSA (S, F=mc, V, G, P, T).
type MC struct {
	// Src is S, the originating switch.
	Src topo.SwitchID
	// Event is V.
	Event Event
	// Conn is G, the connection this LSA concerns.
	Conn ConnID
	// Role qualifies Join events with the member's role (an extension the
	// paper folds into its membership description).
	Role mctree.Role
	// Proposal is P, a complete topology proposal, or nil.
	Proposal *mctree.Tree
	// Stamp is T.
	Stamp stamp.Stamp
}

// String implements fmt.Stringer.
func (m *MC) String() string {
	p := "∅"
	if m.Proposal != nil {
		p = m.Proposal.String()
	}
	return fmt.Sprintf("MC-LSA{S=%d V=%s G=%d P=%s T=%s}", m.Src, m.Event, m.Conn, p, m.Stamp)
}

// Validate checks structural well-formedness.
func (m *MC) Validate(n int) error {
	if m.Src < 0 || int(m.Src) >= n {
		return fmt.Errorf("lsa: MC LSA source %d out of range [0,%d)", m.Src, n)
	}
	if !m.Event.Valid() {
		return fmt.Errorf("lsa: invalid event %d", m.Event)
	}
	if len(m.Stamp) != n {
		return fmt.Errorf("lsa: stamp has %d components, network has %d switches", len(m.Stamp), n)
	}
	if m.Event == Join && m.Role == 0 {
		return fmt.Errorf("lsa: join LSA without role")
	}
	if m.Event == CatchUp && m.Proposal != nil {
		return fmt.Errorf("lsa: catch-up LSA with a proposal")
	}
	return nil
}

// LinkChange is the D field of a non-MC LSA describing a link status event.
type LinkChange struct {
	A, B topo.SwitchID
	Down bool
}

// String implements fmt.Stringer.
func (lc LinkChange) String() string {
	state := "up"
	if lc.Down {
		state = "down"
	}
	return fmt.Sprintf("link(%d,%d) %s", lc.A, lc.B, state)
}

// NonMC is a non-MC LSA (S, F=¬mc, D), handled by the unicast LSR protocol.
type NonMC struct {
	// Src is S, the switch that detected the event.
	Src topo.SwitchID
	// Seq is the originator's advertisement sequence number, as in OSPF:
	// receivers discard advertisements older than the newest they have
	// seen from the same originator, making the substrate robust to
	// duplicated or reordered delivery. Zero means unsequenced (always
	// processed).
	Seq uint32
	// Change is D.
	Change LinkChange
}

// String implements fmt.Stringer.
func (nm *NonMC) String() string {
	return fmt.Sprintf("LSA{S=%d D=%s}", nm.Src, nm.Change)
}

// Wire type tags for encoding.
const (
	tagMC    byte = 1
	tagNonMC byte = 2
)

// Marshal encodes an MC LSA.
func (m *MC) Marshal() []byte {
	return m.AppendMarshal(make([]byte, 0, 16+4*len(m.Stamp)+8*8))
}

// AppendMarshal appends the LSA's encoding to dst and returns the extended
// slice — the allocation-free form of Marshal for callers reusing buffers.
func (m *MC) AppendMarshal(dst []byte) []byte {
	dst = append(dst, tagMC)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Src)))
	dst = append(dst, byte(m.Event), byte(m.Role))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Conn))
	dst = m.Proposal.AppendBinary(dst)
	dst = m.Stamp.AppendBinary(dst)
	return dst
}

// Marshal encodes a non-MC LSA.
func (nm *NonMC) Marshal() []byte {
	return nm.AppendMarshal(make([]byte, 0, 18))
}

// AppendMarshal appends the LSA's encoding to dst and returns the extended
// slice.
func (nm *NonMC) AppendMarshal(dst []byte) []byte {
	dst = append(dst, tagNonMC)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(nm.Src)))
	dst = binary.BigEndian.AppendUint32(dst, nm.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(nm.Change.A)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(nm.Change.B)))
	if nm.Change.Down {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// Unmarshal decodes an advertisement produced by either Marshal. Exactly
// one of the returns is non-nil on success.
func Unmarshal(buf []byte) (*MC, *NonMC, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("lsa: empty buffer")
	}
	switch buf[0] {
	case tagMC:
		buf = buf[1:]
		if len(buf) < 10 {
			return nil, nil, fmt.Errorf("lsa: truncated MC LSA")
		}
		m := &MC{
			Src:   topo.SwitchID(int32(binary.BigEndian.Uint32(buf))),
			Event: Event(buf[4]),
			Role:  mctree.Role(buf[5]),
			Conn:  ConnID(binary.BigEndian.Uint32(buf[6:])),
		}
		if !m.Event.Valid() {
			return nil, nil, fmt.Errorf("lsa: invalid event byte %d", buf[4])
		}
		rest := buf[10:]
		var err error
		m.Proposal, rest, err = mctree.DecodeBinary(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("lsa: proposal: %w", err)
		}
		m.Stamp, rest, err = stamp.DecodeBinary(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("lsa: stamp: %w", err)
		}
		if len(rest) != 0 {
			return nil, nil, fmt.Errorf("lsa: %d trailing bytes", len(rest))
		}
		return m, nil, nil
	case tagNonMC:
		buf = buf[1:]
		if len(buf) != 17 {
			return nil, nil, fmt.Errorf("lsa: non-MC LSA length %d, want 17", len(buf))
		}
		nm := &NonMC{
			Src: topo.SwitchID(int32(binary.BigEndian.Uint32(buf))),
			Seq: binary.BigEndian.Uint32(buf[4:]),
			Change: LinkChange{
				A:    topo.SwitchID(int32(binary.BigEndian.Uint32(buf[8:]))),
				B:    topo.SwitchID(int32(binary.BigEndian.Uint32(buf[12:]))),
				Down: buf[16] != 0,
			},
		}
		return nil, nm, nil
	default:
		return nil, nil, fmt.Errorf("lsa: unknown tag %d", buf[0])
	}
}
