package lsa

import (
	"bytes"
	"testing"

	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
)

// FuzzDecodeLSA feeds arbitrary bytes to the wire decoder. The decoder must
// never panic, and any buffer it accepts must round-trip: re-encoding the
// decoded advertisement and decoding it again must succeed and reach an
// encoding fixpoint (the second encode is byte-identical to the first).
func FuzzDecodeLSA(f *testing.F) {
	tree := mctree.New(mctree.Symmetric)
	tree.AddEdge(0, 1)
	tree.AddEdge(1, 2)
	mc := &MC{Src: 1, Event: Join, Role: mctree.SenderReceiver, Conn: 3,
		Proposal: tree, Stamp: stamp.Stamp{1, 0, 2}}
	bare := &MC{Src: 2, Event: Leave, Conn: 1, Stamp: stamp.Stamp{0, 1, 1, 0}}
	nm := &NonMC{Src: 0, Seq: 9, Change: LinkChange{A: 0, B: 2, Down: true}}
	catchUp := &MC{Src: 2, Event: CatchUp, Role: mctree.Receiver, Conn: 1, Stamp: stamp.Stamp{3, 1, 7, 0}}
	caughtUpGone := &MC{Src: 0, Event: CatchUp, Conn: 1, Stamp: stamp.Stamp{4, 0}}
	f.Add(mc.Marshal())
	f.Add(bare.Marshal())
	f.Add(catchUp.Marshal())
	f.Add(caughtUpGone.Marshal())
	f.Add(nm.Marshal())
	f.Add([]byte{})
	f.Add([]byte{tagMC})
	f.Add([]byte{tagNonMC, 1, 2, 3})
	f.Add([]byte{77, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; panics and false accepts are not
		}
		if (m == nil) == (n == nil) {
			t.Fatalf("accepted buffer decoded to m=%v n=%v; exactly one must be non-nil", m, n)
		}
		var first []byte
		if m != nil {
			first = m.Marshal()
		} else {
			first = n.Marshal()
		}
		m2, n2, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("re-decode of accepted LSA failed: %v (input %x)", err, data)
		}
		var second []byte
		if m2 != nil {
			second = m2.Marshal()
		} else {
			second = n2.Marshal()
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode not a fixpoint:\n first=%x\nsecond=%x", first, second)
		}
	})
}
