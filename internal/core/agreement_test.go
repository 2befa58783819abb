package core

import (
	"strings"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// fakeView is a View over fixed snapshots. Connections lists them in map
// order, as Machine.Connections does, so a check that trusted the order it
// is handed would name a different connection from run to run.
type fakeView map[lsa.ConnID]Snapshot

func (v fakeView) Connections() []lsa.ConnID {
	out := make([]lsa.ConnID, 0, len(v))
	for id := range v {
		out = append(out, id)
	}
	return out
}

func (v fakeView) Connection(conn lsa.ConnID) (Snapshot, bool) {
	snap, ok := v[conn]
	return snap, ok
}

// TestCheckAgreement holds CheckAgreement to each of its rules on a line
// 0-1-2-3 plus a switch 4 cut off by the failed link (3,4). Every switch
// starts agreed on connections 1 and 2: members 0 and 2, R = C = E, and
// the tree 0-1-2. Each case breaks one rule.
func TestCheckAgreement(t *testing.T) {
	g, err := topo.Line(5, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetLinkDown(3, 4, true); err != nil {
		t.Fatal(err)
	}
	const n = 5
	tree := func(edges ...[2]topo.SwitchID) *mctree.Tree {
		tr := mctree.New(mctree.Symmetric)
		for _, e := range edges {
			tr.AddEdge(e[0], e[1])
		}
		return tr
	}
	st := func(v ...uint32) stamp.Stamp {
		s := stamp.New(n)
		copy(s, v)
		return s
	}
	agreed := func(conn lsa.ConnID) Snapshot {
		at := st(1, 0, 1)
		return Snapshot{
			Conn:     conn,
			Members:  mctree.Members{0: mctree.SenderReceiver, 2: mctree.SenderReceiver},
			R:        at.Clone(),
			E:        at.Clone(),
			C:        at.Clone(),
			Topology: tree([2]topo.SwitchID{0, 1}, [2]topo.SwitchID{1, 2}),
		}
	}
	views := func() []View {
		vs := make([]View, n)
		for s := range vs {
			vs[s] = fakeView{1: agreed(1), 2: agreed(2)}
		}
		return vs
	}
	// edit applies fn to switch s's snapshot of conn.
	edit := func(vs []View, s int, conn lsa.ConnID, fn func(*Snapshot)) {
		snap := vs[s].(fakeView)[conn]
		fn(&snap)
		vs[s].(fakeView)[conn] = snap
	}
	everywhere := func(vs []View, fn func(*Snapshot)) {
		for s := range vs {
			edit(vs, s, 1, fn)
			edit(vs, s, 2, fn)
		}
	}

	cases := []struct {
		name   string
		mutate func(vs []View)
		want   string // a substring of the error; "" for agreement
	}{
		{"agreed", func([]View) {}, ""},
		{"switch with no state", func(vs []View) {
			delete(vs[3].(fakeView), 1)
		}, "switch 3 has no state for conn 1"},
		{"stamps diverge", func(vs []View) {
			edit(vs, 1, 1, func(s *Snapshot) { s.E = st(1, 0, 2) })
		}, "switch 1 conn 1 stamps diverge"},
		{"C mismatch", func(vs []View) {
			edit(vs, 2, 1, func(s *Snapshot) { s.R, s.E, s.C = st(2, 0, 1), st(2, 0, 1), st(2, 0, 1) })
		}, "conn 1: switch 2 C=⟨2 0 1 0 0⟩ but switch 0 C=⟨1 0 1 0 0⟩"},
		{"members mismatch", func(vs []View) {
			edit(vs, 1, 1, func(s *Snapshot) { s.Members = mctree.Members{0: mctree.SenderReceiver} })
		}, "conn 1: member lists diverge between switches 1 and 0"},
		{"tree mismatch", func(vs []View) {
			edit(vs, 3, 1, func(s *Snapshot) { s.Topology = tree([2]topo.SwitchID{0, 1}) })
		}, "conn 1: topologies diverge between switches 3 and 0"},
		{"two members, no tree", func(vs []View) {
			everywhere(vs, func(s *Snapshot) { s.Topology = nil })
		}, "conn 1: 2 members but no installed topology"},
		{"invalid tree", func(vs []View) {
			everywhere(vs, func(s *Snapshot) { s.Topology = tree([2]topo.SwitchID{0, 1}) })
		}, "conn 1: converged topology invalid"},
		{"lenient minority component", func(vs []View) {
			// Switch 4 missed the last events and the proposal: stale, but
			// alone in its fragment, so it agrees with itself.
			edit(vs, 4, 1, func(s *Snapshot) {
				s.R, s.E, s.C, s.Topology = st(1), st(1, 0, 1), st(1), nil
			})
		}, ""},
		{"dead switch skipped", func(vs []View) {
			vs[1] = nil
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := views()
			tc.mutate(vs)
			err := CheckAgreement(g, vs)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected violation: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("no violation, want %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("violation %q, want %q", err, tc.want)
			}
		})
	}

	// Both connections diverge at switch 1: the verdict must name the
	// lower ID on every run, whatever order the views list them in.
	t.Run("lowest connection named", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			vs := views()
			edit(vs, 1, 1, func(s *Snapshot) { s.E = st(1, 0, 2) })
			edit(vs, 1, 2, func(s *Snapshot) { s.E = st(1, 0, 2) })
			err := CheckAgreement(g, vs)
			if err == nil || !strings.Contains(err.Error(), "switch 1 conn 1 stamps diverge") {
				t.Fatalf("run %d: %v, want conn 1 named", i, err)
			}
		}
	})
}
