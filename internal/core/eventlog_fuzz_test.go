package core

import (
	"bytes"
	"fmt"
	"testing"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// fuzzBytes hands out the fuzz input a byte at a time, zeros once it runs
// out.
type fuzzBytes struct {
	in  []byte
	pos int
}

func (f *fuzzBytes) next() int {
	if f.pos >= len(f.in) {
		return 0
	}
	f.pos++
	return int(f.in[f.pos-1])
}

func (f *fuzzBytes) done() bool { return f.pos >= len(f.in) }

// fuzzDraw draws event LSAs for one connection from fuzz bytes. Most
// proposals are the previous one with one to three edges added or removed,
// as consecutive proposals of a busy connection are; the rest change the
// kind or the root, start afresh, or are absent.
type fuzzDraw struct {
	f    *fuzzBytes
	n    int
	last stamp.Stamp
	prop *mctree.Tree
}

func (d *fuzzDraw) stamp(src int) stamp.Stamp {
	s := d.last.Clone()
	switch d.f.next() % 8 {
	case 0: // components moved either way, as under MutationIgnoreEventOrder
		for k := d.f.next() % 4; k >= 0; k-- {
			s[d.f.next()%d.n] = uint32(d.f.next()) << (8 * (d.f.next() % 4))
		}
	default:
		s[src]++
	}
	d.last = s
	return s
}

func (d *fuzzDraw) edge(t *mctree.Tree) {
	if d.n > 1 {
		a, b := d.f.next()%d.n, d.f.next()%d.n
		if a != b {
			if t.Has(topo.SwitchID(a), topo.SwitchID(b)) {
				t.RemoveEdge(topo.SwitchID(a), topo.SwitchID(b))
			} else {
				t.AddEdge(topo.SwitchID(a), topo.SwitchID(b))
			}
		}
	}
}

func (d *fuzzDraw) proposal() *mctree.Tree {
	var t *mctree.Tree
	switch mode := d.f.next() % 8; {
	case mode == 0:
		return nil
	case d.prop == nil || mode == 1: // afresh
		t = mctree.NewWithRoot(mctree.Kind(1+d.f.next()%3), topo.NoSwitch)
		for k := d.f.next() % min(2*d.n, 70); k > 0; k-- {
			d.edge(t)
		}
	case mode == 2:
		t = d.prop.Clone()
		t.Kind = mctree.Kind(1 + d.f.next()%3)
	case mode == 3:
		t = d.prop.Clone()
		t.Root = topo.SwitchID(d.f.next()%(d.n+1)) - 1
	default: // a neighbour of the previous proposal
		t = d.prop.Clone()
		for k := 1 + d.f.next()%3; k > 0; k-- {
			d.edge(t)
		}
	}
	d.prop = t
	return t
}

func (d *fuzzDraw) lsa() *lsa.MC {
	src := d.f.next() % d.n
	m := &lsa.MC{Src: topo.SwitchID(src), Conn: 7, Stamp: d.stamp(src)}
	event, role := d.f.next()%8, mctree.Role(d.f.next()%4)
	switch event {
	case 0:
		m.Event, m.Role = lsa.CatchUp, role
		return m
	case 1:
		m.Event = lsa.None
	case 2:
		m.Event = lsa.Link
	case 3, 4:
		m.Event = lsa.Leave
	default:
		m.Event, m.Role = lsa.Join, 1+role%3
	}
	m.Proposal = d.proposal()
	return m
}

// eventLogSeeds are FuzzEventLog's built-in inputs: churn-like runs of
// neighbouring proposals at n = 16 and n = 80, interleaved with trims,
// compactions and clones, and a run without proposals. The limit's own
// trim is TestEventLogMatchesPointerReference's to reach: an input long
// enough for it makes each execution too slow to fuzz.
func eventLogSeeds() [][]byte {
	churn := func(nIndex byte, events int, every int) []byte {
		in := []byte{nIndex}
		for i := 0; i < events; i++ {
			if every > 0 && i%every == every-1 {
				ops := [][]byte{{4, 200}, {6, byte(i)}, {5}, {7, 1}} // trim, clone, compact, switch
				in = append(in, ops[i/every%4]...)
			}
			// append: src, stamp advanced, a join or a leave, role
			in = append(in, 0, byte(i%5), 1, byte(3+2*(i%2)), 0)
			if i == 0 {
				in = append(in, 1, 0, 12) // afresh: kind, 12 edge draws
				for k := 0; k < 12; k++ {
					in = append(in, byte(k), byte(k+1))
				}
				continue
			}
			// a neighbour: 1 + k%3 edges toggled
			k := i % 3
			in = append(in, 4, byte(k))
			for j := 0; j <= k; j++ {
				in = append(in, byte(i*7+j), byte(i*3+j*5+1))
			}
		}
		return in
	}
	bare := []byte{1}
	for i := 0; i < 40; i++ {
		bare = append(bare, 0, byte(i), byte(i%8), byte(i%8), 1, 0)
	}
	return [][]byte{churn(2, 50, 9), churn(3, 40, 7), churn(2, 70, 0), bare}
}

// FuzzEventLog drives the record log and the pointer reference (refLog)
// through the same operations — appends, trims to k, compactions, and
// clones that either side then lives on from — and after every step
// requires what TestEventLogMatchesPointerReference requires: the same
// origins and indices, floors, state encoding and served batches.
func FuzzEventLog(f *testing.F) {
	for _, seed := range eventLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 1024 {
			return
		}
		fb := &fuzzBytes{in: in}
		n := []int{1, 3, 16, 80}[fb.next()%4]
		d := &fuzzDraw{f: fb, n: n, last: stamp.New(n)}
		m := &Machine{id: 0, n: n, conns: map[lsa.ConnID]*connState{}, metrics: &Metrics{}}
		h := &scriptHost{m: m}
		type pair struct {
			cs  *connState
			ref *refLog
		}
		pairs := []pair{{newConnState(7, mctree.Symmetric, n), &refLog{logFloor: stamp.New(n)}}}
		active := 0
		for step := 0; !fb.done(); step++ {
			pr := pairs[active]
			switch op := fb.next() % 8; op {
			case 4:
				keep := fb.next() % (len(pr.ref.eventLog) + 1)
				pr.cs.trimLog(keep)
				pr.ref.trimLog(keep)
			case 5:
				m.conns = map[lsa.ConnID]*connState{7: pr.cs}
				m.CompactEventLogs()
				pr.ref.trimLog(0)
			case 6:
				if len(pairs) < 4 {
					pairs = append(pairs, pair{pr.cs.clone(), pr.ref.clone()})
					if fb.next()%2 == 0 {
						active = len(pairs) - 1
					}
				}
			case 7:
				active = fb.next() % len(pairs)
			default:
				msg := d.lsa()
				pr.cs.logEvent(msg)
				pr.ref.logEvent(msg)
			}
			pr = pairs[active]
			compareLogs(t, m, h, d.last, pr.cs, pr.ref, fmt.Sprintf("step %d, log %d", step, active))
		}
	})
}

// compareLogs fails t unless the record log cs and the reference agree in
// origins and indices, floors, state encoding, and the batch served to a
// requester at zero, at the newest stamp, and at and just below the
// stamps of the oldest and newest retained entries and two between.
func compareLogs(t *testing.T, m *Machine, h *scriptHost, last stamp.Stamp, cs *connState, ref *refLog, at string) {
	t.Helper()
	if got, want := retainedIndexes(cs), refIndexes(ref); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: indexes %v, reference %v", at, got, want)
	}
	if !cs.logFloor.Equal(ref.logFloor) {
		t.Fatalf("%s: floor %s, reference %s", at, cs.logFloor, ref.logFloor)
	}
	if got, want := cs.appendLog(nil), ref.appendLog(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs (%d vs %d bytes)", at, len(got), len(want))
	}
	n := len(last)
	cs.r = last.Clone()
	cs.members = mctree.Members{}
	for x := 0; x < n; x += 2 {
		cs.members[topo.SwitchID(x)] = mctree.Role(1 + x%3)
	}
	m.conns[cs.id] = cs
	reqs := []stamp.Stamp{nil, stamp.New(n), last.Clone()}
	stride := max(1, (len(ref.eventLog)+2)/3)
	for i := 0; i < len(ref.eventLog)+stride-1; i += stride {
		e := ref.eventLog[min(i, len(ref.eventLog)-1)]
		below := e.Stamp.Clone()
		below[e.Src]--
		reqs = append(reqs, e.Stamp.Clone(), below)
	}
	for _, r := range reqs {
		h.unicasts = nil
		m.serveResync(cs, 1, r)
		h.take()
		var got []*lsa.MC
		if len(h.unicasts) == 1 {
			got = h.unicasts[0].payload.(*lsa.ResyncResponse).Batch
		}
		want := ref.batch(cs, r)
		if len(got) != len(want) {
			t.Fatalf("%s, R=%v: %d LSAs served, reference %d", at, r, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Src != w.Src || g.Event != w.Event || g.Role != w.Role || g.Conn != w.Conn ||
				!g.Stamp.Equal(w.Stamp) || !treesEqual(g.Proposal, w.Proposal) {
				t.Fatalf("%s, R=%v: LSA %d is %s, reference %s", at, r, i, describeMC(g), describeMC(w))
			}
		}
	}
}
