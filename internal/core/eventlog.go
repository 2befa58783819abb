package core

import (
	"encoding/binary"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// The replay log keeps each applied event LSA as a compact record rather
// than as the decoded *lsa.MC: a switch holds up to EventLogLimit of them
// per connection, and the decoded form — struct, n-component stamp,
// proposal tree — costs hundreds of bytes an entry where the record costs
// tens (DESIGN.md §13). The records of one connection lie back to back in
// one byte arena (connState.logArena), and each delimits itself, so
// nothing beside the arena says where a record lies. Once the arena has
// grown, an append allocates nothing.
//
// A record is a body followed by the body's length. The body is the LSA as
// unsigned varints, in this order:
//
//	src, event, role,
//	the stamp delta: a pair count, then (gap, zigzag difference) pairs,
//	proposal kind (0: no proposal), then for a proposal its root (zigzag),
//	and the edge delta: an edge count and each edge's endpoints A and B.
//
// The length is a uvarint written byte-reversed, so it reads back to
// front: a walk steps from the arena's end to the newest record's body and
// from each record's start to the one before it. A walk forward parses a
// body to its end.
//
// The connection is left out: a log belongs to one connection. The stamp
// is stored as its difference from the previous entry's, listing only the
// components that changed — the gap is how many unchanged components lie
// between one listed component and the last. The differences are signed,
// because a switch that applies events out of per-origin order
// (MutationIgnoreEventOrder) logs stamps that fall as well as rise.
// connState.logLast holds the newest entry's full stamp; since a
// difference can be undone, any entry's stamp is rebuilt by walking back
// from there. The log treats every stamp as an n-vector: components past
// n are not kept, and missing ones read as zero.
//
// A proposal's edges are stored the same way: as the symmetric difference
// between its edge set and the newest proposal logged before it (an empty
// set if none), in canonical order. Consecutive proposals of a connection
// share most of their edges, so the difference is a few edges where the
// set is tens. connState.logTip holds the newest proposal logged, and a
// symmetric difference is its own inverse, so a walk back from logTip
// rebuilds every entry's edges as it rebuilds its stamp.
//
// The oldest entry's differences refer to an entry no longer kept. No
// walk reads them, so the oldest entries can be dropped without touching
// the rest.

// EventLogRetain is how many applied event LSAs a connection keeps for
// replay. The deepest suffix any resync request reached for across the
// fault soaks, the loss soaks and the simulator's loss sweep was 90 log
// entries (10 events of one origin); this is the next power of two above
// four times that (DESIGN.md §13). The log is trimmed back to it whenever
// it reaches EventLogLimit, so depth stays in [EventLogRetain,
// EventLogLimit) once it has first filled, and the trim's copy is
// amortized over EventLogLimit-EventLogRetain appends.
const EventLogRetain = 512

// EventLogLimit is the depth no connection's event log reaches: an eighth
// above EventLogRetain.
const EventLogLimit = EventLogRetain + EventLogRetain/8

// walkScratch is how many stamp components and proposal edges a walk
// over the log holds on the stack before it spills to the heap.
const walkScratch = 64

// logEvent appends an applied event LSA to the replay log. Proposals are
// kept: a replayed proposal-carrying event LSA lets a resyncing switch
// adopt the topology it missed, not just the event. A catch-up is not one
// of its origin's events and is not kept (applyEventLSA raises the floor
// for it instead).
func (cs *connState) logEvent(m *lsa.MC) {
	if !m.Event.IsEvent() || m.Event == lsa.CatchUp {
		return
	}
	cs.logArena = appendRecord(cs.logArena, m, cs.logLast, cs.logTip)
	cs.logDepth++
	clear(cs.logLast[copy(cs.logLast, m.Stamp):])
	if m.Proposal != nil {
		cs.logTip = m.Proposal
	}
	if cs.logDepth >= EventLogLimit {
		cs.trimLog(EventLogRetain)
	}
}

// trimLog drops all but the newest keep entries, raising each dropped
// origin's floor to the dropped index. It walks back from logLast to
// rebuild the dropped entries' stamps, and nothing is re-encoded: the
// oldest kept entry's differences now refer to a dropped entry, and no
// walk ever reads them. The kept records are copied down in place; an
// arena shared with a clone is left as it is, and the kept records move
// to a new one. Up to walkScratch switches it allocates nothing else.
func (cs *connState) trimLog(keep int) {
	if int(cs.logDepth) <= keep {
		return
	}
	var scratch [walkScratch]uint32
	cur := append(stamp.Stamp(scratch[:0]), cs.logLast...)
	cut := 0 // where the oldest kept record starts
	for k, end := 0, len(cs.logArena); end > 0; k++ {
		if k == keep {
			cut = end
		}
		x, idx, start := stepBack(cs.logArena, end, cur)
		if k >= keep && idx > cs.logFloor[x] {
			cs.logFloor[x] = idx
		}
		end = start
	}
	kept := cs.logArena[cut:]
	if cs.logShared {
		cs.logArena = append([]byte(nil), kept...)
		cs.logShared = false
	} else {
		cs.logArena = cs.logArena[:copy(cs.logArena, kept)]
	}
	cs.logDepth = uint16(keep)
}

// logBytes is what the log occupies: the capacity of its arena, filled or
// not. The newest proposal (logTip) is the logged LSA's own tree and is
// not counted.
func (cs *connState) logBytes() int {
	return cap(cs.logArena)
}

// appendReplay appends, oldest first, a decoded copy of every log entry
// want selects by origin and per-origin index. A first walk back from
// logLast rebuilds stamps only and finds the selected entries; a second
// goes only as far as the oldest of them, rebuilding proposals too, and
// decodes only those. Their structs and stamps share one allocation each.
func (cs *connState) appendReplay(batch []*lsa.MC, want func(src int, idx uint32) bool) []*lsa.MC {
	var scratch [walkScratch]uint32
	cur := append(stamp.Stamp(scratch[:0]), cs.logLast...)
	first, count := 0, 0 // where the oldest selected record starts
	for end := len(cs.logArena); end > 0; {
		x, idx, start := stepBack(cs.logArena, end, cur)
		if want(x, idx) {
			first = start
			count++
		}
		end = start
	}
	if count == 0 {
		return batch
	}
	n := len(cs.logLast)
	msgs := make([]lsa.MC, count)
	stamps := make([]uint32, count*n)
	copy(cur, cs.logLast)
	var e0, e1 [walkScratch]mctree.Edge
	edges, spare := appendEdges(e0[:0], cs.logTip), e1[:0]
	var treeScratch [256]byte
	treeBuf := treeScratch[:0]
	k := count
	for end := len(cs.logArena); ; {
		body, start := prevRecord(cs.logArena, end)
		r := recordReader{enc: body}
		src, event, role := r.header()
		selected := want(int(src), cur[src])
		if selected {
			k--
			st := stamps[k*n : (k+1)*n : (k+1)*n]
			copy(st, cur)
			msgs[k] = lsa.MC{Src: src, Event: event, Role: role, Conn: cs.id, Stamp: st}
		}
		if start == first {
			r.skipStamp()
		} else {
			r.stepStamp(cur, false)
		}
		kind, root, diff := r.proposal()
		if selected && kind != 0 {
			treeBuf = appendTreeBinary(treeBuf[:0], kind, root, edges)
			t, _, err := mctree.DecodeBinary(treeBuf)
			if err != nil {
				panic("core: undecodable event log record: " + err.Error())
			}
			msgs[k].Proposal = t
		}
		if start == first {
			break
		}
		if diff > 0 {
			edges, spare = stepEdges(spare[:0], edges, &r, diff), edges
		}
		end = start
	}
	for i := range msgs {
		batch = append(batch, &msgs[i])
	}
	return batch
}

// appendLog appends the log to the canonical state encoding exactly as the
// decoded LSAs it holds would encode (appendMC), oldest first: a walk back
// from logLast and logTip to the oldest record, then forward.
func (cs *connState) appendLog(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.logDepth))
	if cs.logDepth == 0 {
		return buf
	}
	var scratch [walkScratch]uint32
	cur := append(stamp.Stamp(scratch[:0]), cs.logLast...)
	var e0, e1 [walkScratch]mctree.Edge
	edges, spare := appendEdges(e0[:0], cs.logTip), e1[:0]
	for end := len(cs.logArena); ; {
		body, start := prevRecord(cs.logArena, end)
		if start == 0 {
			break
		}
		r := recordReader{enc: body}
		r.skip(3)
		r.stepStamp(cur, false)
		if _, _, diff := r.proposal(); diff > 0 {
			edges, spare = stepEdges(spare[:0], edges, &r, diff), edges
		}
		end = start
	}
	for pos := 0; pos < len(cs.logArena); {
		// The oldest record's differences are never read.
		oldest := pos == 0
		r := recordReader{enc: cs.logArena[pos:]}
		src, event, role := r.header()
		if oldest {
			r.skipStamp()
		} else {
			r.stepStamp(cur, true)
		}
		kind, root, diff := r.proposal()
		if oldest {
			r.skip(2 * diff)
		} else if diff > 0 {
			edges, spare = stepEdges(spare[:0], edges, &r, diff), edges
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src)))
		buf = append(buf, byte(event), byte(role))
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.id))
		if kind == 0 {
			buf = append(buf, 0)
		} else {
			buf = appendTreeBinary(buf, kind, root, edges)
		}
		buf = cur.AppendBinary(buf)
		pos += r.pos + uvarintLen(r.pos)
	}
	return buf
}

// appendTreeBinary appends the tree of the given kind, root and edges as
// mctree.Tree.AppendBinary would.
func appendTreeBinary(buf []byte, kind mctree.Kind, root topo.SwitchID, edges []mctree.Edge) []byte {
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(root)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.A))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.B))
	}
	return buf
}

// component is s[i], or zero past its end.
func component(s stamp.Stamp, i int) uint32 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// edgeLess is the canonical edge order mctree.Tree keeps its edges in.
func edgeLess(a, b mctree.Edge) bool {
	return a.A < b.A || (a.A == b.A && a.B < b.B)
}

// edgeXor calls emit, in canonical order, on each edge in exactly one of
// the trees a and b (nil is the empty tree).
func edgeXor(a, b *mctree.Tree, emit func(mctree.Edge)) {
	na, nb := 0, 0
	if a != nil {
		na = a.NumEdges()
	}
	if b != nil {
		nb = b.NumEdges()
	}
	i, j := 0, 0
	for i < na && j < nb {
		switch ea, eb := a.Edge(i), b.Edge(j); {
		case ea == eb:
			i++
			j++
		case edgeLess(ea, eb):
			emit(ea)
			i++
		default:
			emit(eb)
			j++
		}
	}
	for ; i < na; i++ {
		emit(a.Edge(i))
	}
	for ; j < nb; j++ {
		emit(b.Edge(j))
	}
}

// appendRecord appends m's record to buf, its stamp as the difference
// from prev (the previous entry's stamp) and its proposal's edges as the
// symmetric difference with tip (the newest proposal logged before it).
func appendRecord(buf []byte, m *lsa.MC, prev stamp.Stamp, tip *mctree.Tree) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(uint32(int32(m.Src))))
	buf = binary.AppendUvarint(buf, uint64(m.Event))
	buf = binary.AppendUvarint(buf, uint64(m.Role))
	pairs := 0
	for i, p := range prev {
		if component(m.Stamp, i) != p {
			pairs++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(pairs))
	next := 0
	for i, p := range prev {
		if d := int64(component(m.Stamp, i)) - int64(p); d != 0 {
			buf = binary.AppendUvarint(buf, uint64(i-next))
			buf = binary.AppendVarint(buf, d)
			next = i + 1
		}
	}
	if t := m.Proposal; t == nil {
		buf = append(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(t.Kind))
		buf = binary.AppendVarint(buf, int64(int32(t.Root)))
		edges := 0
		edgeXor(t, tip, func(mctree.Edge) { edges++ })
		buf = binary.AppendUvarint(buf, uint64(edges))
		edgeXor(t, tip, func(e mctree.Edge) {
			buf = binary.AppendUvarint(buf, uint64(uint32(e.A)))
			buf = binary.AppendUvarint(buf, uint64(uint32(e.B)))
		})
	}
	// The body's length, byte-reversed so that it reads from the back.
	var length [binary.MaxVarintLen64]byte
	l := binary.PutUvarint(length[:], uint64(len(buf)-start))
	for i := l - 1; i >= 0; i-- {
		buf = append(buf, length[i])
	}
	return buf
}

// uvarintLen is how many bytes x takes as a uvarint.
func uvarintLen(x int) int {
	l := 1
	for ; x >= 0x80; x >>= 7 {
		l++
	}
	return l
}

// prevRecord returns the body of the record that ends at end in arena,
// and where the record starts (the previous record's end).
func prevRecord(arena []byte, end int) (body []byte, start int) {
	p := end - 1
	length := 0
	for shift := 0; ; shift += 7 {
		b := arena[p]
		length |= int(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		p--
	}
	return arena[p-length : p], p - length
}

// stepBack reads the record that ends at end in arena, given its stamp
// cur: it returns the record's origin, its per-origin index and where the
// record starts, and turns cur into the previous record's stamp unless the
// record is the oldest (start 0), whose difference is never read. It is
// the stamp-only walk trimLog and appendReplay take over the whole log.
func stepBack(arena []byte, end int, cur stamp.Stamp) (src int, idx uint32, start int) {
	body, start := prevRecord(arena, end)
	r := recordReader{enc: body}
	src = int(r.uvarint())
	idx = cur[src]
	if start > 0 {
		r.skip(2)
		r.stepStamp(cur, false)
	}
	return src, idx, start
}

// recordReader reads a record body front to back. Records are only ever
// written by appendRecord, so it does no bounds or overflow checks beyond
// the language's own.
type recordReader struct {
	enc []byte
	pos int
}

func (r *recordReader) uvarint() uint64 {
	if b := r.enc[r.pos]; b < 0x80 {
		r.pos++
		return uint64(b)
	}
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := r.enc[r.pos]
		r.pos++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x
		}
	}
}

func (r *recordReader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// header reads src, event and role.
func (r *recordReader) header() (src topo.SwitchID, event lsa.Event, role mctree.Role) {
	src = topo.SwitchID(int32(uint32(r.uvarint())))
	event = lsa.Event(r.uvarint())
	role = mctree.Role(r.uvarint())
	return src, event, role
}

// skip reads past k varints.
func (r *recordReader) skip(k int) {
	for ; k > 0; r.pos++ {
		if r.enc[r.pos] < 0x80 {
			k--
		}
	}
}

// stepStamp reads the stamp difference and applies it to s: the previous
// entry's stamp becomes this one's (forward) or the other way round.
func (r *recordReader) stepStamp(s stamp.Stamp, forward bool) {
	i := -1
	for pairs := r.uvarint(); pairs > 0; pairs-- {
		i += 1 + int(r.uvarint())
		d := uint32(r.varint())
		if forward {
			s[i] += d
		} else {
			s[i] -= d
		}
	}
}

// skipStamp reads past the stamp difference.
func (r *recordReader) skipStamp() {
	r.skip(2 * int(r.uvarint()))
}

// proposal reads the proposal's kind (0: none) and, for a proposal, its
// root and the number of edges in its edge difference, which it leaves
// unread.
func (r *recordReader) proposal() (kind mctree.Kind, root topo.SwitchID, edges int) {
	if kind = mctree.Kind(r.uvarint()); kind == 0 {
		return 0, topo.NoSwitch, 0
	}
	root = topo.SwitchID(int32(r.varint()))
	return kind, root, int(r.uvarint())
}

// appendEdges appends t's edges (none for nil) to buf.
func appendEdges(buf []mctree.Edge, t *mctree.Tree) []mctree.Edge {
	if t != nil {
		for i := 0; i < t.NumEdges(); i++ {
			buf = append(buf, t.Edge(i))
		}
	}
	return buf
}

// stepEdges appends to dst the symmetric difference of the edge set edges
// and the edge difference of n edges that r reads next: the edge set on
// one side of the record becomes the one on the other. Both are in
// canonical order, and so is the result.
func stepEdges(dst, edges []mctree.Edge, r *recordReader, n int) []mctree.Edge {
	i := 0
	for ; n > 0; n-- {
		e := mctree.Edge{
			A: topo.SwitchID(int32(uint32(r.uvarint()))),
			B: topo.SwitchID(int32(uint32(r.uvarint()))),
		}
		for i < len(edges) && edgeLess(edges[i], e) {
			dst = append(dst, edges[i])
			i++
		}
		if i < len(edges) && edges[i] == e {
			i++
		} else {
			dst = append(dst, e)
		}
	}
	return append(dst, edges[i:]...)
}
