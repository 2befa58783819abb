package lsa

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
)

func testFrame() *Frame {
	tree := mctree.New(mctree.Symmetric)
	tree.AddEdge(0, 1)
	mc := &MC{Src: 1, Event: Join, Role: mctree.SenderReceiver, Conn: 3,
		Proposal: tree, Stamp: stamp.Stamp{1, 0, 2}}
	return &Frame{Version: FrameVersion, Kind: FrameFlood, Origin: 1, From: 1, Seq: 42, Payload: mc.Marshal()}
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	enc := EncodeFrame(f)
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Version != f.Version || got.Kind != f.Kind || got.Origin != f.Origin ||
		got.From != f.From || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	enc := EncodeFrame(testFrame())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeFrame(enc[:cut]); err == nil {
			t.Fatalf("accepted frame truncated to %d of %d bytes", cut, len(enc))
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	enc := EncodeFrame(testFrame())
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x41
		if _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("accepted frame with byte %d corrupted", i)
		}
	}
}

func TestFrameRejectsVersionSkew(t *testing.T) {
	f := testFrame()
	f.Version = FrameVersion + 1
	if _, err := DecodeFrame(EncodeFrame(f)); err == nil {
		t.Fatal("accepted frame with future version")
	}
}

func TestFrameRejectsUnknownKind(t *testing.T) {
	f := testFrame()
	f.Kind = FrameKind(200)
	if _, err := DecodeFrame(EncodeFrame(f)); err == nil {
		t.Fatal("accepted frame with unknown kind")
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	enc := EncodeFrame(testFrame())
	binary.BigEndian.PutUint32(enc[18:], MaxFramePayload+1)
	if _, err := DecodeFrame(enc); err == nil {
		t.Fatal("accepted frame with oversized length field")
	}
}

func TestPatchFrameFrom(t *testing.T) {
	enc := EncodeFrame(testFrame())
	if err := PatchFrameFrom(enc, 7); err != nil {
		t.Fatalf("PatchFrameFrom: %v", err)
	}
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("decode after patch: %v", err)
	}
	if got.From != 7 {
		t.Fatalf("patched From = %d, want 7", got.From)
	}
	if got.Origin != 1 || got.Seq != 42 {
		t.Fatalf("patch disturbed other fields: %+v", got)
	}
	if err := PatchFrameFrom(enc[:10], 3); err == nil {
		t.Fatal("patched a truncated frame")
	}
}

func TestResyncRequestRoundTrip(t *testing.T) {
	r := &ResyncRequest{Conn: 9, From: 4, R: stamp.Stamp{3, 0, 1, 2}}
	got, err := DecodeResyncRequest(r.Marshal())
	if err != nil {
		t.Fatalf("DecodeResyncRequest: %v", err)
	}
	if got.Conn != r.Conn || got.From != r.From || !got.R.Equal(r.R) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, r)
	}
	if _, err := DecodeResyncRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted truncated resync request")
	}
}

func TestResyncResponseRoundTrip(t *testing.T) {
	tree := mctree.New(mctree.Symmetric)
	tree.AddEdge(1, 2)
	r := &ResyncResponse{Conn: 9, From: 4, Batch: []*MC{
		{Src: 1, Event: Join, Role: mctree.Receiver, Conn: 9, Stamp: stamp.Stamp{1, 0, 0}},
		{Src: 2, Event: None, Conn: 9, Proposal: tree, Stamp: stamp.Stamp{1, 1, 0}},
	}}
	got, err := DecodeResyncResponse(r.Marshal())
	if err != nil {
		t.Fatalf("DecodeResyncResponse: %v", err)
	}
	if got.Conn != r.Conn || got.From != r.From || len(got.Batch) != 2 {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if got.Batch[0].Src != 1 || got.Batch[1].Proposal == nil {
		t.Fatalf("batch content mismatch: %v / %v", got.Batch[0], got.Batch[1])
	}
	if _, err := DecodeResyncResponse([]byte{0, 0, 0, 1}); err == nil {
		t.Fatal("accepted truncated resync response")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder. Truncation,
// bad checksums, and version skew must come back as errors — never panics —
// and any accepted frame must re-encode byte-identically.
func FuzzDecodeFrame(f *testing.F) {
	fr := testFrame()
	f.Add(EncodeFrame(fr))
	req := &ResyncRequest{Conn: 1, From: 0, R: stamp.Stamp{1, 2}}
	f.Add(EncodeFrame(&Frame{Version: FrameVersion, Kind: FrameResyncReq, Origin: 0, From: 0, Seq: 1, Payload: req.Marshal()}))
	f.Add(EncodeFrame(&Frame{Version: FrameVersion, Kind: FrameFlood, Origin: 2, From: 3, Seq: 7}))
	f.Add([]byte{})
	f.Add([]byte{FrameVersion})
	f.Add([]byte{FrameVersion + 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // rejection is fine; panics and false accepts are not
		}
		if fr.Version != FrameVersion {
			t.Fatalf("accepted frame with version %d", fr.Version)
		}
		if !fr.Kind.Valid() {
			t.Fatalf("accepted frame with invalid kind %d", fr.Kind)
		}
		re := EncodeFrame(fr)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not re-encode identically:\n in=%x\nout=%x", data, re)
		}
	})
}

// TestResyncResponseSplit: a response cut to a frame limit becomes parts
// that each decode on their own and each fit the limit once framed, that
// together carry the batch in order with the closing pseudo-proposal last;
// an LSA bigger than the limit still travels, alone; and a response that
// fits is one part, byte-identical to the whole.
func TestResyncResponseSplit(t *testing.T) {
	const n = 100
	tree := mctree.New(mctree.Symmetric)
	tree.AddEdge(1, 2)
	r := &ResyncResponse{Conn: 9, From: 4}
	for i := 1; i <= 300; i++ {
		st := stamp.New(n)
		st[7] = uint32(i)
		r.Batch = append(r.Batch, &MC{Src: 7, Event: Join, Role: mctree.Receiver, Conn: 9, Stamp: st})
	}
	r.Batch = append(r.Batch, &MC{Src: 4, Event: None, Conn: 9, Proposal: tree, Stamp: stamp.New(n)})

	const limit = 4096
	var got []*MC
	parts := r.Split(limit)
	for i, p := range parts {
		framed := AppendFrameWith(nil, &Frame{Version: FrameVersion, Kind: FrameResyncResp}, p.AppendMarshal)
		if len(framed) > limit {
			t.Fatalf("part %d is %d bytes framed, limit %d", i, len(framed), limit)
		}
		part, err := DecodeResyncResponse(p.Marshal())
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if part.Conn != 9 || part.From != 4 || len(part.Batch) == 0 {
			t.Fatalf("part %d = %+v", i, part)
		}
		got = append(got, part.Batch...)
	}
	if len(parts) < 2 || len(got) != len(r.Batch) {
		t.Fatalf("%d parts carrying %d of %d LSAs", len(parts), len(got), len(r.Batch))
	}
	for i, m := range got {
		if !bytes.Equal(m.Marshal(), r.Batch[i].Marshal()) {
			t.Fatalf("LSA %d reordered or altered across parts", i)
		}
	}

	if alone := r.Split(64); len(alone) != len(r.Batch) { // smaller than any one LSA
		t.Fatalf("oversize LSAs: %d parts for %d LSAs", len(alone), len(r.Batch))
	}
	if whole := r.Split(1 << 20); len(whole) != 1 || !bytes.Equal(whole[0].Marshal(), r.Marshal()) {
		t.Fatalf("a response that fits split into %d parts", len(whole))
	}
	if empty := (&ResyncResponse{Conn: 9, From: 4}).Split(limit); len(empty) != 1 || len(empty[0].Batch) != 0 {
		t.Fatalf("empty response split into %d parts", len(empty))
	}
}

// FuzzDecodeResyncResponse guards the batch decoder against hostile counts
// and truncated inner LSAs.
func FuzzDecodeResyncResponse(f *testing.F) {
	r := &ResyncResponse{Conn: 9, From: 4, Batch: []*MC{
		{Src: 1, Event: Join, Role: mctree.Receiver, Conn: 9, Stamp: stamp.Stamp{1, 0}},
	}}
	// What a switch that trimmed its log answers: catch-ups, a retained
	// event, the capstone.
	tree := mctree.New(mctree.Symmetric)
	tree.AddEdge(0, 1)
	trimmed := &ResyncResponse{Conn: 9, From: 1, Batch: []*MC{
		{Src: 0, Event: CatchUp, Role: mctree.SenderReceiver, Conn: 9, Stamp: stamp.Stamp{7, 3}},
		{Src: 1, Event: CatchUp, Conn: 9, Stamp: stamp.Stamp{7, 3}},
		{Src: 0, Event: Leave, Conn: 9, Stamp: stamp.Stamp{8, 3}},
		{Src: 1, Event: None, Conn: 9, Proposal: tree, Stamp: stamp.Stamp{7, 3}},
	}}
	f.Add(r.Marshal())
	f.Add(trimmed.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeResyncResponse(data)
		if err != nil {
			return
		}
		re := got.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted response does not re-encode identically:\n in=%x\nout=%x", data, re)
		}
	})
}
