package mctree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dgmc/internal/topo"
)

func lineGraph(t *testing.T, n int) *topo.Graph {
	t.Helper()
	g, err := topo.Line(n, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKindAndRoleStrings(t *testing.T) {
	if Symmetric.String() != "symmetric" || ReceiverOnly.String() != "receiver-only" ||
		Asymmetric.String() != "asymmetric" {
		t.Error("kind strings wrong")
	}
	if Kind(9).Valid() || Kind(0).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if Sender.String() != "sender" || Receiver.String() != "receiver" ||
		SenderReceiver.String() != "sender+receiver" {
		t.Error("role strings wrong")
	}
	if !SenderReceiver.CanSend() || !SenderReceiver.CanReceive() {
		t.Error("SenderReceiver capabilities wrong")
	}
	if Sender.CanReceive() || Receiver.CanSend() {
		t.Error("single-role capabilities wrong")
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("unknown kind string = %q", got)
	}
	if got := Role(8).String(); got != "Role(8)" {
		t.Errorf("unknown role string = %q", got)
	}
}

func TestMembersHelpers(t *testing.T) {
	m := Members{3: Receiver, 1: Sender, 2: SenderReceiver}
	if got := m.IDs(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("IDs = %v", got)
	}
	if got := m.Senders(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Senders = %v", got)
	}
	if got := m.Receivers(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Receivers = %v", got)
	}
	c := m.Clone()
	c[3] = Sender
	if m[3] != Receiver {
		t.Error("Clone shares storage")
	}
	if !m.Equal(Members{1: Sender, 2: SenderReceiver, 3: Receiver}) {
		t.Error("Equal false negative")
	}
	if m.Equal(c) || m.Equal(Members{1: Sender}) {
		t.Error("Equal false positive")
	}
}

func TestEdgeCanonicalization(t *testing.T) {
	if NewEdge(5, 2) != (Edge{A: 2, B: 5}) {
		t.Error("NewEdge does not canonicalize")
	}
}

func TestAddRemoveHasEdges(t *testing.T) {
	tr := New(Symmetric)
	tr.AddEdge(3, 1)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 3) // duplicate (reversed)
	if tr.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", tr.NumEdges())
	}
	if !tr.Has(1, 3) || !tr.Has(1, 0) || tr.Has(0, 3) {
		t.Error("Has wrong")
	}
	e := tr.Edges()
	if e[0] != NewEdge(0, 1) || e[1] != NewEdge(1, 3) {
		t.Errorf("edges not canonical-sorted: %v", e)
	}
	tr.RemoveEdge(3, 1)
	if tr.Has(1, 3) || tr.NumEdges() != 1 {
		t.Error("RemoveEdge failed")
	}
	tr.RemoveEdge(9, 9) // no-op
	if tr.NumEdges() != 1 {
		t.Error("RemoveEdge of absent edge changed tree")
	}
}

func TestNodesNeighborsOn(t *testing.T) {
	tr := New(Symmetric)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 2)
	tr.AddEdge(1, 5)
	nodes := tr.Nodes()
	want := []topo.SwitchID{0, 1, 2, 5}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v", nodes)
		}
	}
	nb := tr.Neighbors(1)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 2 || nb[2] != 5 {
		t.Errorf("neighbors(1) = %v", nb)
	}
	if !tr.On(5) || tr.On(4) {
		t.Error("On wrong")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := NewWithRoot(Asymmetric, 2)
	a.AddEdge(0, 1)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.AddEdge(1, 2)
	if a.Equal(b) {
		t.Error("Equal ignores edges")
	}
	c := a.Clone()
	c.Root = 0
	if a.Equal(c) {
		t.Error("Equal ignores root")
	}
	var nilT *Tree
	if nilT.Equal(a) || a.Equal(nil) {
		t.Error("nil equality wrong")
	}
	if !nilT.Equal(nil) {
		t.Error("nil==nil should hold")
	}
}

func TestValidate(t *testing.T) {
	g := lineGraph(t, 5) // 0-1-2-3-4

	valid := New(Symmetric)
	valid.AddEdge(1, 2)
	valid.AddEdge(2, 3)
	if err := valid.Validate(g, Members{1: SenderReceiver, 3: SenderReceiver}); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}

	t.Run("empty tree single member", func(t *testing.T) {
		if err := New(Symmetric).Validate(g, Members{2: SenderReceiver}); err != nil {
			t.Errorf("singleton MC rejected: %v", err)
		}
		if err := New(Symmetric).Validate(g, Members{1: Sender, 2: Receiver}); err == nil {
			t.Error("empty tree with 2 members accepted")
		}
	})

	t.Run("edge not in graph", func(t *testing.T) {
		tr := New(Symmetric)
		tr.AddEdge(0, 4)
		if err := tr.Validate(g, Members{0: SenderReceiver, 4: SenderReceiver}); err == nil {
			t.Error("phantom edge accepted")
		}
	})

	t.Run("downed edge", func(t *testing.T) {
		g2 := g.Clone()
		if err := g2.SetLinkDown(1, 2, true); err != nil {
			t.Fatal(err)
		}
		if err := valid.Validate(g2, Members{1: SenderReceiver, 3: SenderReceiver}); err == nil {
			t.Error("tree over failed link accepted")
		}
	})

	t.Run("forest", func(t *testing.T) {
		tr := New(Symmetric)
		tr.AddEdge(0, 1)
		tr.AddEdge(2, 3)
		if err := tr.Validate(g, Members{0: SenderReceiver, 3: SenderReceiver}); err == nil {
			t.Error("forest accepted")
		}
	})

	t.Run("member off tree", func(t *testing.T) {
		if err := valid.Validate(g, Members{1: SenderReceiver, 4: SenderReceiver}); err == nil {
			t.Error("member off tree accepted")
		}
	})

	t.Run("root off tree", func(t *testing.T) {
		tr := NewWithRoot(Asymmetric, 0)
		tr.AddEdge(1, 2)
		if err := tr.Validate(g, Members{1: Sender, 2: Receiver}); err == nil {
			t.Error("root off tree accepted")
		}
	})

	t.Run("bad kind", func(t *testing.T) {
		tr := New(Kind(7))
		if err := tr.Validate(g, nil); err == nil {
			t.Error("invalid kind accepted")
		}
	})

	t.Run("cycle", func(t *testing.T) {
		rg, err := topo.Ring(3, time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		tr := New(Symmetric)
		tr.AddEdge(0, 1)
		tr.AddEdge(1, 2)
		tr.AddEdge(0, 2)
		if err := tr.Validate(rg, Members{0: SenderReceiver}); err == nil {
			t.Error("cycle accepted")
		}
	})
}

func TestCostAndPathDelay(t *testing.T) {
	g := lineGraph(t, 4) // 10µs links
	tr := New(Symmetric)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 2)
	if tr.Cost(g) != 20*time.Microsecond {
		t.Errorf("cost = %v", tr.Cost(g))
	}
	if d := tr.PathDelay(g, 0, 2); d != 20*time.Microsecond {
		t.Errorf("path delay 0->2 = %v", d)
	}
	if d := tr.PathDelay(g, 0, 0); d != 0 {
		t.Errorf("self delay = %v", d)
	}
	if d := tr.PathDelay(g, 0, 3); d >= 0 {
		t.Errorf("off-tree delay = %v, want negative", d)
	}
}

func TestDiff(t *testing.T) {
	oldT := New(Symmetric)
	oldT.AddEdge(0, 1)
	oldT.AddEdge(1, 2)
	newT := New(Symmetric)
	newT.AddEdge(1, 2)
	newT.AddEdge(2, 3)

	added, removed := Diff(oldT, newT)
	if len(added) != 1 || added[0] != NewEdge(2, 3) {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != NewEdge(0, 1) {
		t.Errorf("removed = %v", removed)
	}
	added, removed = Diff(nil, newT)
	if len(added) != 2 || len(removed) != 0 {
		t.Errorf("diff from nil: %v %v", added, removed)
	}
	added, removed = Diff(oldT, nil)
	if len(added) != 0 || len(removed) != 2 {
		t.Errorf("diff to nil: %v %v", added, removed)
	}
}

func TestString(t *testing.T) {
	tr := NewWithRoot(Asymmetric, 3)
	tr.AddEdge(3, 1)
	if got := tr.String(); got != "asymmetric@3{1-3}" {
		t.Errorf("String = %q", got)
	}
	if got := New(Symmetric).String(); got != "symmetric{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := NewWithRoot(Asymmetric, 2)
	tr.AddEdge(2, 0)
	tr.AddEdge(2, 4)
	buf := tr.AppendBinary(nil)
	got, rest, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !got.Equal(tr) {
		t.Errorf("round trip: got %v rest %d", got, len(rest))
	}

	// nil tree
	buf = (*Tree)(nil).AppendBinary(nil)
	got, rest, err = DecodeBinary(buf)
	if err != nil || got != nil || len(rest) != 0 {
		t.Errorf("nil round trip: %v %v %v", got, rest, err)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(Symmetric)},           // truncated header
		{9, 0, 0, 0, 0, 0, 0, 0, 0}, // bad kind
		append([]byte{byte(Symmetric)}, make([]byte, 8)[:7]...), // short header
	}
	// edge count says 1 but no edge bytes
	hdr := []byte{byte(Symmetric)}
	hdr = append(hdr, 0xff, 0xff, 0xff, 0xff) // root -1
	hdr = append(hdr, 0, 0, 0, 1)
	cases = append(cases, hdr)
	// self-loop edge
	self := append(append([]byte{}, hdr...), 0, 0, 0, 2, 0, 0, 0, 2)
	cases = append(cases, self)
	// one encoding per tree: an edge high endpoint first, edges out of order
	flipped := append(append([]byte{}, hdr...), 0, 0, 0, 3, 0, 0, 0, 2)
	cases = append(cases, flipped)
	unsorted := append([]byte{byte(Symmetric)}, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2,
		0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1)
	cases = append(cases, unsorted)
	for i, buf := range cases {
		if _, _, err := DecodeBinary(buf); err == nil {
			t.Errorf("case %d: decode succeeded on malformed input", i)
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			tr := New(Kind(1 + r.Intn(3)))
			if r.Intn(2) == 0 {
				tr.Root = topo.SwitchID(r.Intn(20))
			}
			for i := 0; i < r.Intn(10); i++ {
				a := topo.SwitchID(r.Intn(20))
				b := topo.SwitchID(r.Intn(20))
				if a != b {
					tr.AddEdge(a, b)
				}
			}
			vals[0] = reflect.ValueOf(tr)
		},
		Rand: r,
	}
	law := func(tr *Tree) bool {
		got, rest, err := DecodeBinary(tr.AppendBinary(nil))
		return err == nil && len(rest) == 0 && got.Equal(tr)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAddRemoveInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		tr := New(Symmetric)
		ref := map[Edge]bool{}
		for op := 0; op < 30; op++ {
			a := topo.SwitchID(r.Intn(8))
			b := topo.SwitchID(r.Intn(8))
			if a == b {
				continue
			}
			e := NewEdge(a, b)
			if r.Intn(2) == 0 {
				tr.AddEdge(a, b)
				ref[e] = true
			} else {
				tr.RemoveEdge(a, b)
				delete(ref, e)
			}
			if tr.NumEdges() != len(ref) {
				t.Fatalf("size mismatch: %d vs %d", tr.NumEdges(), len(ref))
			}
			if tr.Has(a, b) != ref[e] {
				t.Fatalf("membership mismatch for %v", e)
			}
		}
		// Edges always sorted canonical.
		es := tr.Edges()
		for i := 1; i < len(es); i++ {
			if es[i-1].A > es[i].A || (es[i-1].A == es[i].A && es[i-1].B >= es[i].B) {
				t.Fatalf("edges unsorted: %v", es)
			}
		}
	}
}
