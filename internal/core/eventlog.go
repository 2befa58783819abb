package core

import (
	"encoding/binary"
	"unsafe"

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
// one byte arena (connState.logArena); an 8-byte logEntry per record
// (connState.logIndex) says where its encoding ends and which per-origin
// index it has. Once both arrays have grown, an append allocates nothing.
//
// A record's encoding is the LSA as unsigned varints, in this order:
//
//	src, event, role,
//	proposal kind (0: no proposal), then for a proposal its root (zigzag),
//	edge count, and each edge's endpoints A and B,
//	the stamp delta: (gap, zigzag difference) pairs to the end of the record.
//
// The connection is left out: a log belongs to one connection. The stamp
// is stored as its difference from the previous entry's, listing only the
// components that changed — the gap is how many unchanged components lie
// between one listed component and the last. The differences are signed,
// because a switch that applies events out of per-origin order
// (MutationIgnoreEventOrder) logs stamps that fall as well as rise.
// connState.logLast holds the newest entry's full stamp; since a
// difference can be undone, any entry's stamp is rebuilt by walking back
// from there, and the oldest entries can be dropped without touching the
// rest. The log treats every stamp as an n-vector: components past n are
// not kept, and missing ones read as zero.

// logEntry indexes one record in the arena: the offset its encoding ends
// at (it starts where the previous entry's ends, or at 0) and its
// origin's per-origin index. The origin is the encoding's first uvarint.
type logEntry struct {
	end uint32
	idx uint32
}

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
// above EventLogRetain, so a full log's arrays are never sized for more
// than that.
const EventLogLimit = EventLogRetain + EventLogRetain/8

// logEvent appends an applied event LSA to the replay log. Proposals are
// kept: a replayed proposal-carrying event LSA lets a resyncing switch
// adopt the topology it missed, not just the event. A catch-up is not one
// of its origin's events and is not kept (applyEventLSA raises the floor
// for it instead).
func (cs *connState) logEvent(m *lsa.MC) {
	if !m.Event.IsEvent() || m.Event == lsa.CatchUp {
		return
	}
	if n := len(cs.logIndex); n == cap(cs.logIndex) {
		// Doubling, but never past EventLogLimit entries: a full log's
		// index is exactly as large as its deepest depth.
		grown := make([]logEntry, n, min(max(2*n, 1), EventLogLimit))
		copy(grown, cs.logIndex)
		cs.logIndex = grown
	}
	cs.logArena = appendRecord(cs.logArena, m, cs.logLast)
	cs.logIndex = append(cs.logIndex, logEntry{end: uint32(len(cs.logArena)), idx: m.Stamp[int(m.Src)]})
	clear(cs.logLast[copy(cs.logLast, m.Stamp):])
	if len(cs.logIndex) >= EventLogLimit {
		cs.trimLog(EventLogRetain)
	}
}

// record is the encoding of log entry i.
func (cs *connState) record(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = cs.logIndex[i-1].end
	}
	return cs.logArena[start:cs.logIndex[i].end]
}

// recordSrc is the origin of the record enc.
func recordSrc(enc []byte) int {
	r := recordReader{enc: enc}
	return int(int32(uint32(r.uvarint())))
}

// trimLog drops all but the newest keep entries, raising each dropped
// origin's floor to the dropped index. Nothing is re-encoded: the oldest
// kept entry's difference now refers to a dropped entry, and no walk back
// from logLast ever reads it. The kept encodings and index entries are
// copied down in place, the index rebased to the arena's new start; arrays
// shared with a clone are left as they are, and the kept entries move to
// new ones.
func (cs *connState) trimLog(keep int) {
	drop := len(cs.logIndex) - keep
	if drop <= 0 {
		return
	}
	for i, e := range cs.logIndex[:drop] {
		if x := recordSrc(cs.record(i)); e.idx > cs.logFloor[x] {
			cs.logFloor[x] = e.idx
		}
	}
	base := cs.logIndex[drop-1].end
	arena, index := cs.logArena[base:], cs.logIndex[drop:]
	if cs.logShared {
		cs.logArena = append([]byte(nil), arena...)
		cs.logIndex = append([]logEntry(nil), index...)
		cs.logShared = false
	} else {
		cs.logArena = cs.logArena[:copy(cs.logArena, arena)]
		cs.logIndex = cs.logIndex[:copy(cs.logIndex, index)]
	}
	for i := range cs.logIndex {
		cs.logIndex[i].end -= base
	}
}

// logBytes is what the log occupies: the capacity of its arena and its
// index, filled or not.
func (cs *connState) logBytes() int {
	return cap(cs.logArena) + int(unsafe.Sizeof(logEntry{}))*cap(cs.logIndex)
}

// appendReplay appends, oldest first, a decoded copy of every log entry
// want selects by origin and per-origin index. It walks back from logLast
// only as far as the oldest selected entry and decodes only the selected
// ones; their structs and stamps share one allocation each.
func (cs *connState) appendReplay(batch []*lsa.MC, want func(src int, idx uint32) bool) []*lsa.MC {
	first, count := -1, 0
	for i, e := range cs.logIndex {
		if want(recordSrc(cs.record(i)), e.idx) {
			if first < 0 {
				first = i
			}
			count++
		}
	}
	if count == 0 {
		return batch
	}
	n := len(cs.logLast)
	msgs := make([]lsa.MC, count)
	stamps := make([]uint32, count*n)
	cur := cs.logLast.Clone()
	k := count
	for j := len(cs.logIndex) - 1; ; j-- {
		enc := cs.record(j)
		if want(recordSrc(enc), cs.logIndex[j].idx) {
			k--
			st := stamps[k*n : (k+1)*n : (k+1)*n]
			copy(st, cur)
			msgs[k] = decodeRecord(enc, cs.id, st)
		}
		if j == first {
			break
		}
		stepBack(cur, enc)
	}
	for i := range msgs {
		batch = append(batch, &msgs[i])
	}
	return batch
}

// appendLog appends the log to the canonical state encoding exactly as the
// decoded LSAs it holds would encode (appendMC), oldest first.
func (cs *connState) appendLog(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cs.logIndex)))
	if len(cs.logIndex) == 0 {
		return buf
	}
	var scratch [64]uint32 // cur on the stack, up to 64 switches
	cur := append(stamp.Stamp(scratch[:0]), cs.logLast...)
	for j := len(cs.logIndex) - 1; j > 0; j-- {
		stepBack(cur, cs.record(j))
	}
	for j := range cs.logIndex {
		buf = appendRecordMC(buf, cs.record(j), cs.id, cur, j > 0)
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

// appendRecord appends m's record encoding to buf, its stamp as the
// difference from prev (the previous entry's stamp).
func appendRecord(buf []byte, m *lsa.MC, prev stamp.Stamp) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(int32(m.Src))))
	buf = binary.AppendUvarint(buf, uint64(m.Event))
	buf = binary.AppendUvarint(buf, uint64(m.Role))
	if t := m.Proposal; t == nil {
		buf = append(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(t.Kind))
		buf = binary.AppendVarint(buf, int64(int32(t.Root)))
		buf = binary.AppendUvarint(buf, uint64(t.NumEdges()))
		for i := 0; i < t.NumEdges(); i++ {
			e := t.Edge(i)
			buf = binary.AppendUvarint(buf, uint64(uint32(e.A)))
			buf = binary.AppendUvarint(buf, uint64(uint32(e.B)))
		}
	}
	next := 0
	for i, p := range prev {
		if d := int64(component(m.Stamp, i)) - int64(p); d != 0 {
			buf = binary.AppendUvarint(buf, uint64(i-next))
			buf = binary.AppendVarint(buf, d)
			next = i + 1
		}
	}
	return buf
}

// recordReader reads a record encoding front to back. Records are only
// ever written by appendRecord, so it does no bounds or overflow checks
// beyond the language's own.
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

// appendTree reads the proposal and appends it to buf as
// mctree.Tree.AppendBinary would.
func (r *recordReader) appendTree(buf []byte) []byte {
	kind := byte(r.uvarint())
	if kind == 0 {
		return append(buf, 0)
	}
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.varint())))
	edges := r.uvarint()
	buf = binary.BigEndian.AppendUint32(buf, uint32(edges))
	for i := uint64(0); i < 2*edges; i++ {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.uvarint()))
	}
	return buf
}

// skip reads past k varints.
func (r *recordReader) skip(k int) {
	for ; k > 0; r.pos++ {
		if r.enc[r.pos] < 0x80 {
			k--
		}
	}
}

// skipBody reads past everything before the stamp difference.
func (r *recordReader) skipBody() {
	r.skip(3)
	if r.uvarint() == 0 {
		return
	}
	r.skip(1)
	r.skip(2 * int(r.uvarint()))
}

// step reads the stamp difference and applies it to s: the previous
// entry's stamp becomes this one's (forward) or the other way round.
func (r *recordReader) step(s stamp.Stamp, forward bool) {
	for i := 0; r.pos < len(r.enc); i++ {
		i += int(r.uvarint())
		d := uint32(r.varint())
		if forward {
			s[i] += d
		} else {
			s[i] -= d
		}
	}
}

// stepBack turns the stamp of enc's entry into the previous entry's.
func stepBack(s stamp.Stamp, enc []byte) {
	r := recordReader{enc: enc}
	r.skipBody()
	r.step(s, false)
}

// appendRecordMC appends the record as appendMC appends the LSA it was
// made from, given the connection and the entry's stamp. With step set, st
// holds the previous entry's stamp and is advanced to this one's first.
func appendRecordMC(buf []byte, enc []byte, conn lsa.ConnID, st stamp.Stamp, step bool) []byte {
	r := recordReader{enc: enc}
	src, event, role := r.header()
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src)))
	buf = append(buf, byte(event), byte(role))
	buf = binary.BigEndian.AppendUint32(buf, uint32(conn))
	buf = r.appendTree(buf)
	if step {
		r.step(st, true)
	}
	return st.AppendBinary(buf)
}

// decodeRecord rebuilds the LSA a record was made from, given the
// connection and the entry's stamp (which the LSA takes).
func decodeRecord(enc []byte, conn lsa.ConnID, st stamp.Stamp) lsa.MC {
	r := recordReader{enc: enc}
	src, event, role := r.header()
	m := lsa.MC{Src: src, Event: event, Role: role, Conn: conn, Stamp: st}
	var scratch [256]byte
	t, _, err := mctree.DecodeBinary(r.appendTree(scratch[:0]))
	if err != nil {
		panic("core: undecodable event log record: " + err.Error())
	}
	m.Proposal = t
	return m
}
