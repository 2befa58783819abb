package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// refLog is the replay log as it was before records: the applied event
// LSAs themselves, by pointer, and the per-origin floor. Its methods are
// logEvent, trimLog, serveResync's batch and appendState's log section
// from that version, verbatim but for the receiver.
type refLog struct {
	eventLog []*lsa.MC
	logFloor stamp.Stamp
}

func (cs *refLog) logEvent(m *lsa.MC) {
	if !m.Event.IsEvent() || m.Event == lsa.CatchUp {
		return
	}
	cs.eventLog = append(cs.eventLog, m)
	if len(cs.eventLog) >= EventLogLimit {
		cs.trimLog(EventLogRetain)
	}
}

func (cs *refLog) trimLog(keep int) {
	drop := len(cs.eventLog) - keep
	if drop <= 0 {
		return
	}
	for _, m := range cs.eventLog[:drop] {
		x := int(m.Src)
		if idx := m.Stamp[x]; idx > cs.logFloor[x] {
			cs.logFloor[x] = idx
		}
	}
	copy(cs.eventLog, cs.eventLog[drop:])
	clear(cs.eventLog[keep:])
	cs.eventLog = cs.eventLog[:keep]
}

// batch is serveResync's response for requester stamp r, given the live
// state the catch-ups are built from.
func (cs *refLog) batch(live *connState, r stamp.Stamp) []*lsa.MC {
	rAt := func(x int) uint32 {
		if x >= 0 && x < len(r) {
			return r[x]
		}
		return 0
	}
	belowFloor := func(x int) bool {
		return rAt(x) < cs.logFloor[x]
	}
	var batch []*lsa.MC
	var have stamp.Stamp
	for x := range cs.logFloor {
		if !belowFloor(x) {
			continue
		}
		if have == nil {
			have = live.r.Clone()
		}
		batch = append(batch, &lsa.MC{
			Src: switchID(x), Event: lsa.CatchUp, Role: live.members[switchID(x)],
			Conn: live.id, Stamp: have,
		})
	}
	for _, msg := range cs.eventLog {
		x := int(msg.Src)
		if msg.Stamp[x] > rAt(x) && !belowFloor(x) {
			batch = append(batch, msg)
		}
	}
	return batch
}

func (cs *refLog) appendLog(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cs.eventLog)))
	for _, msg := range cs.eventLog {
		buf = appendMC(buf, msg)
	}
	return buf
}

func (cs *refLog) clone() *refLog {
	return &refLog{eventLog: append([]*lsa.MC(nil), cs.eventLog...), logFloor: cs.logFloor.Clone()}
}

// logDraw draws event LSAs for one connection of an n-switch network.
type logDraw struct {
	rng  *rand.Rand
	n    int
	conn lsa.ConnID
	last stamp.Stamp
}

// component draws a stamp component: small mostly, sometimes past one or
// four varint bytes, sometimes at the ends of the range.
func (d *logDraw) component() uint32 {
	switch d.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return ^uint32(0) - uint32(d.rng.Intn(3))
	case 2:
		return uint32(d.rng.Int63n(1 << 32))
	case 3:
		return uint32(128 + d.rng.Intn(1<<14))
	default:
		return uint32(d.rng.Intn(100))
	}
}

// stamp mostly advances one origin's component, as an in-order apply
// does, and sometimes moves several components either way, as applying
// in arrival order under MutationIgnoreEventOrder can.
func (d *logDraw) stamp(src int) stamp.Stamp {
	s := d.last.Clone()
	if d.rng.Intn(4) > 0 {
		s[src]++
	} else {
		for k := d.rng.Intn(4); k >= 0; k-- {
			s[d.rng.Intn(d.n)] = d.component()
		}
	}
	d.last = s
	return s
}

func (d *logDraw) proposal() *mctree.Tree {
	if d.rng.Intn(3) == 0 {
		return nil
	}
	root := topo.NoSwitch
	if d.rng.Intn(2) == 0 {
		root = topo.SwitchID(d.rng.Intn(d.n))
	}
	t := mctree.NewWithRoot(mctree.Kind(1+d.rng.Intn(3)), root)
	if d.n > 1 {
		for k := d.rng.Intn(min(2*d.n, 64)); k > 0; k-- {
			a, b := d.rng.Intn(d.n), d.rng.Intn(d.n)
			if a != b {
				t.AddEdge(topo.SwitchID(a), topo.SwitchID(b))
			}
		}
	}
	return t
}

// lsa draws an LSA of any event kind — the logged ones most of the time,
// a catch-up or a bare proposal (neither logged) now and then.
func (d *logDraw) lsa() *lsa.MC {
	src := d.rng.Intn(d.n)
	m := &lsa.MC{Src: topo.SwitchID(src), Conn: d.conn, Stamp: d.stamp(src)}
	switch d.rng.Intn(10) {
	case 0:
		m.Event = lsa.CatchUp
		m.Role = mctree.Role(d.rng.Intn(4))
		return m
	case 1:
		m.Event = lsa.None
	case 2, 3:
		m.Event = lsa.Link
	case 4, 5, 6:
		m.Event = lsa.Leave
	default:
		m.Event, m.Role = lsa.Join, mctree.Role(1+d.rng.Intn(3))
	}
	m.Proposal = d.proposal()
	return m
}

// requesters draws the R vectors to serve: none, all zeros, the newest
// stamp, each retained entry's stamp and one below it at its origin, and
// random vectors.
func (d *logDraw) requesters(ref *refLog) []stamp.Stamp {
	out := []stamp.Stamp{nil, stamp.New(d.n), d.last.Clone()}
	for _, m := range ref.eventLog {
		if d.rng.Intn(8) > 0 && len(ref.eventLog) > 16 {
			continue
		}
		below := m.Stamp.Clone()
		below[m.Src]--
		out = append(out, m.Stamp.Clone(), below)
	}
	for k := 0; k < 4; k++ {
		r := stamp.New(d.n)
		for x := range r {
			r[x] = d.component()
		}
		out = append(out, r)
	}
	return out
}

func describeMC(m *lsa.MC) string {
	return fmt.Sprintf("%s role=%d", m, m.Role)
}

// TestEventLogMatchesPointerReference: over random LSAs of every event
// kind, with and without proposals of all three MC kinds, stamps whose
// components rise and fall and need multi-byte varints, networks of 1, 16,
// 100 and 300 switches, trims, compactions and clones at random points
// (each clone then living on by itself), the record log serves every
// requester the reference's batch LSA for LSA, encodes byte for byte as
// the reference does, and trims the same origins and indices.
func TestEventLogMatchesPointerReference(t *testing.T) {
	for _, n := range []int{1, 16, 100, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				d := &logDraw{rng: rng, n: n, conn: 7, last: stamp.New(n)}
				m := &Machine{id: 0, n: n, conns: map[lsa.ConnID]*connState{}, metrics: &Metrics{}}
				h := &scriptHost{m: m}
				type pair struct {
					cs  *connState
					ref *refLog
				}
				first := newConnState(d.conn, mctree.Symmetric, n)
				pairs := []pair{{first, &refLog{logFloor: stamp.New(n)}}}

				check := func(step int) {
					t.Helper()
					for p, pr := range pairs {
						cs, ref := pr.cs, pr.ref
						if got, want := retainedIndexes(cs), refIndexes(ref); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d, log %d: indexes %v, reference %v", step, p, got, want)
						}
						if !cs.logFloor.Equal(ref.logFloor) {
							t.Fatalf("step %d, log %d: floor %s, reference %s", step, p, cs.logFloor, ref.logFloor)
						}
						if got, want := cs.appendLog(nil), ref.appendLog(nil); !bytes.Equal(got, want) {
							t.Fatalf("step %d, log %d: encoding differs (%d vs %d bytes)", step, p, len(got), len(want))
						}
						cs.r = d.last.Clone()
						cs.members = mctree.Members{}
						for x := 0; x < n; x += 3 {
							cs.members[topo.SwitchID(x)] = mctree.Role(1 + x%3)
						}
						m.conns[d.conn] = cs
						for _, r := range d.requesters(ref) {
							h.unicasts = nil
							m.serveResync(cs, 1, r)
							h.take()
							var got []*lsa.MC
							if len(h.unicasts) == 1 {
								got = h.unicasts[0].payload.(*lsa.ResyncResponse).Batch
							}
							want := ref.batch(cs, r)
							if len(got) != len(want) {
								t.Fatalf("step %d, log %d, R=%v: %d LSAs served, reference %d", step, p, r, len(got), len(want))
							}
							for i := range got {
								g, w := got[i], want[i]
								if g.Src != w.Src || g.Event != w.Event || g.Role != w.Role || g.Conn != w.Conn ||
									!g.Stamp.Equal(w.Stamp) || !treesEqual(g.Proposal, w.Proposal) {
									t.Fatalf("step %d, log %d, R=%v: LSA %d is %s, reference %s", step, p, r, i, describeMC(g), describeMC(w))
								}
							}
						}
					}
				}

				events := 300
				if n <= 16 && seed == 1 {
					events = 2*EventLogLimit + 100 // through the limit's own trims
				}
				for step := 0; step < events; step++ {
					pr := pairs[rng.Intn(len(pairs))]
					msg := d.lsa()
					pr.cs.logEvent(msg)
					pr.ref.logEvent(msg)
					switch rng.Intn(60) {
					case 0:
						keep := rng.Intn(len(pr.ref.eventLog) + 1)
						pr.cs.trimLog(keep)
						pr.ref.trimLog(keep)
					case 1:
						m.conns = map[lsa.ConnID]*connState{d.conn: pr.cs}
						m.CompactEventLogs()
						pr.ref.trimLog(0)
					case 2:
						if len(pairs) < 4 {
							pairs = append(pairs, pair{pr.cs.clone(), pr.ref.clone()})
						}
					}
					if step%50 == 49 {
						check(step)
					}
				}
				check(events)
			})
		}
	}
}

func refIndexes(ref *refLog) [][2]uint32 {
	var out [][2]uint32
	for _, m := range ref.eventLog {
		out = append(out, [2]uint32{uint32(m.Src), m.Stamp[int(m.Src)]})
	}
	return out
}

func treesEqual(a, b *mctree.Tree) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Root == b.Root && a.Equal(b)
}
