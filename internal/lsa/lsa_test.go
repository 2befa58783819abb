package lsa

import (
	"math/rand"
	"strings"
	"testing"

	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

func TestEventStringsAndPredicates(t *testing.T) {
	cases := map[Event]string{None: "none", Join: "join", Leave: "leave", Link: "link", CatchUp: "catch-up"}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
		if !e.Valid() {
			t.Errorf("%s not valid", want)
		}
	}
	if Event(9).Valid() {
		t.Error("Event(9) valid")
	}
	if got := Event(9).String(); got != "Event(9)" {
		t.Errorf("unknown event string = %q", got)
	}
	if None.IsEvent() {
		t.Error("none should not be an event")
	}
	for _, e := range []Event{Join, Leave, Link, CatchUp} {
		if !e.IsEvent() {
			t.Errorf("%s should be an event", e)
		}
	}
}

func TestMCValidate(t *testing.T) {
	good := &MC{Src: 1, Event: Join, Role: mctree.SenderReceiver, Conn: 7, Stamp: stamp.New(4)}
	if err := good.Validate(4); err != nil {
		t.Errorf("good LSA rejected: %v", err)
	}
	// A catch-up names membership by role alone: zero means "not a member".
	for _, role := range []mctree.Role{0, mctree.Receiver} {
		cu := &MC{Src: 2, Event: CatchUp, Role: role, Conn: 7, Stamp: stamp.Stamp{0, 1, 5, 0}}
		if err := cu.Validate(4); err != nil {
			t.Errorf("catch-up with role %d rejected: %v", role, err)
		}
	}
	bad := []*MC{
		{Src: 0, Event: CatchUp, Proposal: mctree.New(mctree.Symmetric), Stamp: stamp.New(4)},
		{Src: -1, Event: Join, Role: mctree.Sender, Stamp: stamp.New(4)},
		{Src: 4, Event: Join, Role: mctree.Sender, Stamp: stamp.New(4)},
		{Src: 0, Event: Event(9), Stamp: stamp.New(4)},
		{Src: 0, Event: Leave, Stamp: stamp.New(3)},
		{Src: 0, Event: Join, Role: 0, Stamp: stamp.New(4)},
	}
	for i, m := range bad {
		if err := m.Validate(4); err == nil {
			t.Errorf("bad LSA %d accepted", i)
		}
	}
}

func TestMCMarshalRoundTrip(t *testing.T) {
	tr := mctree.NewWithRoot(mctree.Asymmetric, 0)
	tr.AddEdge(0, 2)
	ts := stamp.Stamp{1, 0, 3}
	in := &MC{Src: 2, Event: Join, Role: mctree.Receiver, Conn: 42, Proposal: tr, Stamp: ts}

	m, nm, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if nm != nil {
		t.Fatal("decoded as non-MC")
	}
	if m.Src != 2 || m.Event != Join || m.Role != mctree.Receiver || m.Conn != 42 {
		t.Errorf("fields = %+v", m)
	}
	if !m.Proposal.Equal(tr) {
		t.Errorf("proposal = %v", m.Proposal)
	}
	if !m.Stamp.Equal(ts) {
		t.Errorf("stamp = %v", m.Stamp)
	}
}

func TestMCMarshalNilProposal(t *testing.T) {
	in := &MC{Src: 0, Event: Leave, Conn: 1, Stamp: stamp.New(2)}
	m, _, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Proposal != nil {
		t.Errorf("proposal = %v, want nil", m.Proposal)
	}
}

func TestNonMCMarshalRoundTrip(t *testing.T) {
	for _, down := range []bool{true, false} {
		in := &NonMC{Src: 3, Change: LinkChange{A: 1, B: 5, Down: down}}
		m, nm, err := Unmarshal(in.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			t.Fatal("decoded as MC")
		}
		if nm.Src != 3 || nm.Change.A != 1 || nm.Change.B != 5 || nm.Change.Down != down {
			t.Errorf("fields = %+v", nm)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},          // unknown tag
		{9},          // unknown tag
		{1, 0, 0},    // truncated MC
		{2, 0, 0, 0}, // truncated non-MC
	}
	good := (&MC{Src: 0, Event: None, Conn: 0, Stamp: stamp.New(1)}).Marshal()
	cases = append(cases,
		good[:len(good)-1], // truncated stamp
		append(good, 0xAA), // trailing garbage
	)
	badEvent := append([]byte{}, good...)
	badEvent[5] = 99
	cases = append(cases, badEvent)
	for i, buf := range cases {
		if _, _, err := Unmarshal(buf); err == nil {
			t.Errorf("case %d: Unmarshal accepted malformed input", i)
		}
	}
}

func TestStrings(t *testing.T) {
	m := &MC{Src: 1, Event: Join, Conn: 5, Stamp: stamp.Stamp{1}}
	if s := m.String(); !strings.Contains(s, "S=1") || !strings.Contains(s, "join") || !strings.Contains(s, "∅") {
		t.Errorf("MC string = %q", s)
	}
	m.Proposal = mctree.New(mctree.Symmetric)
	if s := m.String(); strings.Contains(s, "∅") {
		t.Errorf("MC string with proposal = %q", s)
	}
	nm := &NonMC{Src: 2, Change: LinkChange{A: 0, B: 1, Down: true}}
	if s := nm.String(); !strings.Contains(s, "down") {
		t.Errorf("NonMC string = %q", s)
	}
	up := LinkChange{A: 0, B: 1}
	if s := up.String(); !strings.Contains(s, "up") {
		t.Errorf("LinkChange string = %q", s)
	}
}

func TestFuzzRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		n := 1 + r.Intn(12)
		ts := stamp.New(n)
		for j := range ts {
			ts[j] = uint32(r.Intn(5))
		}
		var tr *mctree.Tree
		if r.Intn(2) == 0 {
			tr = mctree.New(mctree.Kind(1 + r.Intn(3)))
			for e := 0; e < r.Intn(6); e++ {
				a := topo.SwitchID(r.Intn(n))
				b := topo.SwitchID(r.Intn(n))
				if a != b {
					tr.AddEdge(a, b)
				}
			}
		}
		in := &MC{
			Src:      topo.SwitchID(r.Intn(n)),
			Event:    Event(r.Intn(4)),
			Role:     mctree.Role(1 + r.Intn(3)),
			Conn:     ConnID(r.Intn(100)),
			Proposal: tr,
			Stamp:    ts,
		}
		m, _, err := Unmarshal(in.Marshal())
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if m.Src != in.Src || m.Event != in.Event || m.Conn != in.Conn || m.Role != in.Role {
			t.Fatalf("iter %d: fields changed", i)
		}
		if !m.Stamp.Equal(in.Stamp) {
			t.Fatalf("iter %d: stamp changed", i)
		}
		if (m.Proposal == nil) != (in.Proposal == nil) || (m.Proposal != nil && !m.Proposal.Equal(in.Proposal)) {
			t.Fatalf("iter %d: proposal changed", i)
		}
	}
}

func TestNonMCSequenceRoundTrip(t *testing.T) {
	in := &NonMC{Src: 2, Seq: 7, Change: LinkChange{A: 0, B: 1, Down: true}}
	_, nm, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if nm.Seq != 7 {
		t.Errorf("seq = %d, want 7", nm.Seq)
	}
}
