package fib

import (
	"math/rand"
	"reflect"
	"testing"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// TestPatchMatchesBuilder: one Patch, reused across 2 000 installs on a
// Waxman graph, each changing, re-installing unchanged or dropping a few
// of eight connections of all three kinds, yields the table a Builder
// compiles from scratch, entry for entry — and the installed table itself,
// pointer for pointer, exactly when no entry differs.
func TestPatchMatchesBuilder(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(24, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumSwitches()
	rng := rand.New(rand.NewSource(9))
	type state struct {
		kind    mctree.Kind
		members mctree.Members
		tree    *mctree.Tree
	}
	live := map[lsa.ConnID]state{}
	draw := func(conn lsa.ConnID) state {
		kind := []mctree.Kind{mctree.Symmetric, mctree.ReceiverOnly, mctree.Asymmetric}[int(conn)%3]
		members := mctree.Members{}
		for size := 1 + rng.Intn(5); len(members) < size; {
			members[topo.SwitchID(rng.Intn(n))] = mctree.Role(1 + rng.Intn(3))
		}
		tree, err := (route.SPH{}).Compute(g, kind, members)
		if err != nil {
			tree = nil // no sender to root at: installed as edgeless
		}
		return state{kind, members, tree}
	}
	const self = topo.SwitchID(3)
	full := func() *Table {
		b := NewBuilder(self, g)
		for conn, st := range live {
			b.Add(conn, st.kind, st.members, st.tree)
		}
		return b.Build()
	}
	cur := full()
	var p Patch
	kept, swapped := 0, 0
	for install := 0; install < 2000; install++ {
		var changed []lsa.ConnID
		for k := 1 + rng.Intn(2); k > 0; k-- {
			conn := lsa.ConnID(1 + rng.Intn(8))
			changed = append(changed, conn)
			switch r := rng.Intn(10); {
			case r < 2:
				delete(live, conn)
			case r < 6:
				live[conn] = draw(conn)
			} // otherwise re-installed as it stands
		}
		p.Reset(self, g, cur)
		for _, conn := range changed {
			p.Drop(conn)
			if st, ok := live[conn]; ok {
				p.Add(conn, st.kind, st.members, st.tree)
			}
		}
		next, want := p.Table(), full()
		differ := !reflect.DeepEqual(cur.Conns(), want.Conns())
		for _, conn := range want.Conns() {
			if !reflect.DeepEqual(next.Lookup(conn), want.Lookup(conn)) {
				t.Fatalf("install %d conn %d: patched %+v, built %+v", install, conn, next.Lookup(conn), want.Lookup(conn))
			}
			differ = differ || !reflect.DeepEqual(cur.Lookup(conn), want.Lookup(conn))
		}
		if !reflect.DeepEqual(next.Conns(), want.Conns()) {
			t.Fatalf("install %d: patched table serves %v, built %v", install, next.Conns(), want.Conns())
		}
		if (next != cur) != differ {
			t.Fatalf("install %d: swapped %v, but an entry differs: %v", install, next != cur, differ)
		}
		if next == cur {
			kept++
		} else {
			swapped++
		}
		cur = next
	}
	if kept < 200 || swapped < 200 {
		t.Fatalf("%d installs kept the table and %d swapped: not the mix this test is for", kept, swapped)
	}
	t.Logf("%d installs kept the table, %d swapped", kept, swapped)
}
