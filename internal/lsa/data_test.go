package lsa

import (
	"bytes"
	"testing"
)

func testDataFrame() *DataFrame {
	return &DataFrame{Conn: 7, Src: 3, Seq: 99, Hops: 12, Payload: []byte("hello, tree")}
}

func TestDataFrameRoundTrip(t *testing.T) {
	d := testDataFrame()
	enc := AppendDataFrame(nil, d, 5)
	var f Frame
	if err := DecodeFrameInto(&f, enc); err != nil {
		t.Fatalf("DecodeFrameInto: %v", err)
	}
	if f.Kind != FrameData || f.Origin != d.Src || f.From != 5 || f.Seq != d.Seq || f.Hops != d.Hops {
		t.Fatalf("outer header mismatch: %+v", f)
	}
	var got DataFrame
	if err := DecodeDataInto(&got, &f); err != nil {
		t.Fatalf("DecodeDataInto: %v", err)
	}
	if got.Conn != d.Conn || got.Src != d.Src || got.Seq != d.Seq || got.Hops != d.Hops ||
		!bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, d)
	}
}

func TestDataFrameEmptyPayload(t *testing.T) {
	d := &DataFrame{Conn: 1, Src: 0, Seq: 1, Hops: 1}
	enc := AppendDataFrame(nil, d, 0)
	var f Frame
	if err := DecodeFrameInto(&f, enc); err != nil {
		t.Fatalf("DecodeFrameInto: %v", err)
	}
	var got DataFrame
	if err := DecodeDataInto(&got, &f); err != nil {
		t.Fatalf("DecodeDataInto: %v", err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %q, want empty", got.Payload)
	}
}

func TestDecodeDataRejectsWrongKind(t *testing.T) {
	f := testFrame() // a flood frame
	enc := EncodeFrame(f)
	var outer Frame
	if err := DecodeFrameInto(&outer, enc); err != nil {
		t.Fatalf("DecodeFrameInto: %v", err)
	}
	var d DataFrame
	if err := DecodeDataInto(&d, &outer); err == nil {
		t.Fatal("accepted a flood frame as a data frame")
	}
}

func TestDecodeDataRejectsTruncatedHeader(t *testing.T) {
	// A FrameData frame whose payload is shorter than the data header.
	f := &Frame{Version: FrameVersion, Kind: FrameData, Origin: 1, From: 1, Seq: 1, Payload: []byte{0, 0, 0}}
	enc := EncodeFrame(f)
	var outer Frame
	if err := DecodeFrameInto(&outer, enc); err != nil {
		t.Fatalf("DecodeFrameInto: %v", err)
	}
	var d DataFrame
	if err := DecodeDataInto(&d, &outer); err == nil {
		t.Fatal("accepted a data frame with a truncated data header")
	}
}

func TestPatchDataForward(t *testing.T) {
	d := testDataFrame()
	enc := AppendDataFrame(nil, d, 5)
	if err := PatchDataForward(enc, 9, d.Hops-1); err != nil {
		t.Fatalf("PatchDataForward: %v", err)
	}
	var f Frame
	if err := DecodeFrameInto(&f, enc); err != nil {
		t.Fatalf("decode after patch: %v", err)
	}
	var got DataFrame
	if err := DecodeDataInto(&got, &f); err != nil {
		t.Fatalf("DecodeDataInto after patch: %v", err)
	}
	if f.From != 9 {
		t.Fatalf("patched From = %d, want 9", f.From)
	}
	if got.Hops != d.Hops-1 {
		t.Fatalf("patched Hops = %d, want %d", got.Hops, d.Hops-1)
	}
	if got.Conn != d.Conn || got.Src != d.Src || got.Seq != d.Seq || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("patch disturbed other fields: %+v", got)
	}
	// A patched frame must re-encode byte-identically through the normal path.
	re := AppendDataFrame(nil, &got, f.From)
	if !bytes.Equal(re, enc) {
		t.Fatalf("patched frame does not match re-encoding:\n in=%x\nout=%x", enc, re)
	}
	if err := PatchDataForward(enc[:frameHeaderLen+2], 1, 0); err == nil {
		t.Fatal("patched a truncated data frame")
	}
}

// FuzzDecodeDataFrame feeds arbitrary bytes through the outer frame decoder
// and, for accepted data frames, the data-header parser. Rejections must be
// errors — never panics — and any accepted data frame must re-encode
// byte-identically via AppendDataFrame.
func FuzzDecodeDataFrame(f *testing.F) {
	f.Add(AppendDataFrame(nil, testDataFrame(), 5))
	f.Add(AppendDataFrame(nil, &DataFrame{Conn: 1, Src: 0, Seq: 1, Hops: 0}, 0))
	f.Add(EncodeFrame(&Frame{Version: FrameVersion, Kind: FrameData, Origin: 2, From: 3, Seq: 7, Hops: 1, Payload: []byte{0, 0}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var outer Frame
		if err := DecodeFrameInto(&outer, data); err != nil {
			return // rejection is fine; panics and false accepts are not
		}
		if outer.Kind != FrameData {
			return // other kinds are FuzzDecodeFrame's business
		}
		var d DataFrame
		if err := DecodeDataInto(&d, &outer); err != nil {
			return
		}
		re := AppendDataFrame(nil, &d, outer.From)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted data frame does not re-encode identically:\n in=%x\nout=%x", data, re)
		}
	})
}
