package lsa

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
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
		got.From != f.From || got.Seq != f.Seq || got.Hops != f.Hops || !bytes.Equal(got.Payload, f.Payload) {
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
	binary.BigEndian.PutUint32(enc[frameHeaderLen-4:], MaxFramePayload+1)
	if _, err := DecodeFrame(enc); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length field: err = %v, want the limit error", err)
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

// v1Frame encodes a flood frame the way FrameVersion 1 did — every field,
// CRC included, in a 26-byte header ahead of the payload — for the tests
// that a v2 receiver refuses it as version skew.
func v1Frame(origin, from int32, seq uint64, payload []byte) []byte {
	b := []byte{1, byte(FrameFlood)}
	b = binary.BigEndian.AppendUint32(b, uint32(origin))
	b = binary.BigEndian.AppendUint32(b, uint32(from))
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	crc := crc32.Update(crc32.Update(0, crcTable, b), crcTable, payload)
	b = binary.BigEndian.AppendUint32(b, crc)
	return append(b, payload...)
}

// TestFrameRejectsV1: a frame in the previous layout — intact by its own
// rules — is refused, and by name: the error is the version error, whatever
// else about the buffer would not parse, down to a payload-less frame that
// is shorter than any v2 frame.
func TestFrameRejectsV1(t *testing.T) {
	for _, payload := range [][]byte{testFrame().Payload, nil} {
		_, err := DecodeFrame(v1Frame(1, 1, 42, payload))
		if err == nil || !strings.Contains(err.Error(), "frame version 1, want 2") {
			t.Fatalf("v1 frame with %d payload bytes: err = %v, want the version error", len(payload), err)
		}
	}
}

// TestFrameGoldenBytes pins the wire layout: one flood frame and one data
// frame against hex files. A deliberate layout change bumps FrameVersion and
// replaces the files (the failure prints the new bytes); an accidental one
// fails here by name.
func TestFrameGoldenBytes(t *testing.T) {
	flood := testFrame()
	flood.From = 5
	cases := map[string][]byte{
		"flood_frame_v2.hex": EncodeFrame(flood),
		"data_frame_v2.hex":  AppendDataFrame(nil, testDataFrame(), 5),
	}
	for name, got := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: layout changed\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestPatchEquivalence is the v2 format's contract, on random frames of
// every kind with payloads of 0…2 KiB: patching an encoded frame with the
// checksum state its decode kept, patching it with the state recomputed
// from the buffer, and encoding the patched frame from scratch all give the
// same bytes; and the seal still covers everything — flipping any one bit
// of header, payload or trailer makes the decoder refuse the frame.
func TestPatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := []FrameKind{FrameFlood, FrameResyncReq, FrameResyncResp, FrameData}
	for i := 0; i < 400; i++ {
		size := rng.Intn(2049)
		if i < 2*len(kinds) {
			size = (i / len(kinds)) * 2048 // both ends of the range, every kind
		}
		f := &Frame{Version: FrameVersion, Kind: kinds[i%len(kinds)], Origin: topo.SwitchID(rng.Int31()),
			From: topo.SwitchID(rng.Int31()), Seq: rng.Uint64(), Hops: uint8(rng.Intn(256)), Payload: make([]byte, size)}
		rng.Read(f.Payload)
		enc := EncodeFrame(f)
		var dec Frame
		if err := DecodeFrameInto(&dec, enc); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if recomputed := SumBody(enc); recomputed != dec.BodySum() {
			t.Fatalf("frame %d: SumBody = %08x, decode kept %08x", i, recomputed, dec.BodySum())
		}

		from, seq, hops := topo.SwitchID(rng.Int31()), rng.Uint64(), uint8(rng.Intn(256))
		patches := []struct {
			name      string
			withState func(b []byte) error
			without   func(b []byte) error
			scratch   Frame
		}{
			{"From", func(b []byte) error { return dec.BodySum().PatchFrom(b, from) },
				func(b []byte) error { return PatchFrameFrom(b, from) },
				Frame{Version: f.Version, Kind: f.Kind, Origin: f.Origin, From: from, Seq: f.Seq, Hops: f.Hops, Payload: f.Payload}},
			{"DataForward", func(b []byte) error { return dec.BodySum().PatchDataForward(b, from, hops) },
				func(b []byte) error { return PatchDataForward(b, from, hops) },
				Frame{Version: f.Version, Kind: f.Kind, Origin: f.Origin, From: from, Seq: f.Seq, Hops: hops, Payload: f.Payload}},
			{"DataSeq", func(b []byte) error { return dec.BodySum().PatchDataSeq(b, seq) },
				func(b []byte) error { return PatchDataSeq(b, seq) },
				Frame{Version: f.Version, Kind: f.Kind, Origin: f.Origin, From: f.From, Seq: seq, Hops: f.Hops, Payload: f.Payload}},
		}
		for _, p := range patches {
			a, b := bytes.Clone(enc), bytes.Clone(enc)
			if err := p.withState(a); err != nil {
				t.Fatalf("frame %d: patch %s with state: %v", i, p.name, err)
			}
			if err := p.without(b); err != nil {
				t.Fatalf("frame %d: patch %s without state: %v", i, p.name, err)
			}
			if want := EncodeFrame(&p.scratch); !bytes.Equal(a, want) || !bytes.Equal(b, want) {
				t.Fatalf("frame %d (%v, %d payload bytes): patch %s\n with state %x\n  without %x\n  encoded %x",
					i, f.Kind, size, p.name, a, b, want)
			}
		}

		if i%16 >= len(kinds) {
			continue // every bit of a 2 KiB frame is 16 k decodes: a sample of frames, all of their bits
		}
		for bit := 0; bit < 8*len(enc); bit++ {
			enc[bit/8] ^= 1 << (bit % 8)
			if err := DecodeFrameInto(&dec, enc); err == nil {
				t.Fatalf("frame %d (%v, %d payload bytes): accepted with bit %d of byte %d flipped", i, f.Kind, size, bit%8, bit/8)
			}
			enc[bit/8] ^= 1 << (bit % 8)
		}
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
	f.Add(append([]byte{FrameVersion + 1, 1}, make([]byte, frameOverhead-2)...))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(v1Frame(1, 1, 42, fr.Payload))
	f.Add(EncodeFrame(&Frame{Version: FrameVersion, Kind: FrameResyncResp, Origin: 4, From: 4, Seq: 9, Hops: 3, Payload: []byte{0, 0, 0, 9, 0, 0, 0, 4, 0, 0, 0, 0}}))
	// Bodies the checksum splits three ways, once and after whole blocks.
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{crc32cSplitMin, 1404, 32 << 10} {
		payload := make([]byte, n)
		rng.Read(payload)
		f.Add(EncodeFrame(&Frame{Version: FrameVersion, Kind: FrameData, Origin: -2, From: 5, Seq: uint64(n), Hops: 16, Payload: payload}))
	}

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
