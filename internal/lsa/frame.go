package lsa

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dgmc/internal/topo"
)

// FrameVersion is the current wire-framing version. Receivers reject other
// versions: the framing carries no negotiation, so a version skew between
// daemons is a deployment error to surface, not to paper over.
const FrameVersion = 1

// FrameKind says what a frame's payload is and how it travels.
type FrameKind uint8

const (
	// FrameFlood carries a Marshal'd MC or non-MC LSA being flooded
	// network-wide: receivers deliver it locally and re-forward it to
	// their other neighbors, suppressing duplicates by (Origin, Seq).
	FrameFlood FrameKind = 1
	// FrameResyncReq carries a point-to-point ResyncRequest.
	FrameResyncReq FrameKind = 2
	// FrameResyncResp carries a point-to-point ResyncResponse.
	FrameResyncResp FrameKind = 3
	// FrameData carries an application payload riding an installed MC
	// topology: it is forwarded hop by hop along the per-switch FIB, not
	// flooded. Origin is the sending switch, Seq its per-source data
	// sequence, From the link-level forwarder (patched at each hop).
	FrameData FrameKind = 4
)

// Valid reports whether k is a defined frame kind.
func (k FrameKind) Valid() bool {
	return k == FrameFlood || k == FrameResyncReq || k == FrameResyncResp || k == FrameData
}

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case FrameFlood:
		return "flood"
	case FrameResyncReq:
		return "resync-req"
	case FrameResyncResp:
		return "resync-resp"
	case FrameData:
		return "data"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// Frame is the unit a live transport sends on the wire: a small header
// (version, kind, flood identity, link-level sender, payload length, CRC)
// around one encoded advertisement or resync message.
//
// Origin and Seq identify a flood network-wide for duplicate suppression;
// From is the link-level sender, updated at each store-and-forward hop so
// receivers know which neighbor not to forward back to. For point-to-point
// resync frames Origin == From and Seq is the sender's next flood sequence
// (unused by receivers beyond tracing).
type Frame struct {
	Version uint8
	Kind    FrameKind
	Origin  topo.SwitchID
	From    topo.SwitchID
	Seq     uint64
	Payload []byte
}

// frameHeaderLen is version(1) + kind(1) + origin(4) + from(4) + seq(8) +
// length(4) + crc32(4).
const frameHeaderLen = 26

// frameFromOffset is the byte offset of the From field, exported to the
// forwarding path via PatchFrameFrom.
const frameFromOffset = 6

// frameSeqOffset is the byte offset of the Seq field, used by the in-place
// patch helpers (PatchDataSeq) and the header peek.
const frameSeqOffset = 10

// MaxFramePayload bounds the payload length a decoder will accept. It is
// far above anything the protocol produces (a proposal tree plus a stamp
// for a few hundred switches is a few KB) while keeping a hostile length
// field from turning into a large allocation.
const MaxFramePayload = 1 << 20

// EncodeFrame encodes f. The CRC covers the header fields and the payload,
// so any truncation or corruption of either is detected.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, frameHeaderLen+len(f.Payload)), f)
}

// AppendFrame appends f's encoding to dst and returns the extended slice —
// the allocation-free form of EncodeFrame for callers that reuse buffers.
func AppendFrame(dst []byte, f *Frame) []byte {
	return AppendFrameWith(dst, f, func(b []byte) []byte {
		return append(b, f.Payload...)
	})
}

// AppendFrameWith appends a frame to dst whose payload is produced by
// payloadFn appending directly after the header, skipping the intermediate
// payload slice entirely. f.Payload is ignored; the length and CRC fields are
// patched after payloadFn returns, so the output is byte-identical to
// EncodeFrame over the same payload bytes. payloadFn must only append.
func AppendFrameWith(dst []byte, f *Frame, payloadFn func([]byte) []byte) []byte {
	base := len(dst)
	dst = append(dst, f.Version, byte(f.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.Origin)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.From)))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, 0) // length: patched below
	dst = binary.BigEndian.AppendUint32(dst, 0) // crc: patched below
	dst = payloadFn(dst)
	hdr := dst[base : base+frameHeaderLen]
	payload := dst[base+frameHeaderLen:]
	binary.BigEndian.PutUint32(hdr[frameHeaderLen-8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[frameHeaderLen-4:], frameCRC(hdr[:frameHeaderLen-4], payload))
	return dst
}

// PeekFrameMeta reads the kind and identity fields (origin, link-level
// from, outer sequence) straight out of an encoded frame's fixed-offset
// header, without validating the length or CRC — for fabric-level
// classification (e.g. the loss knob's per-frame drop hash) that must not
// pay for a full decode on every send. ok is false when buf is shorter
// than a frame header.
func PeekFrameMeta(buf []byte) (kind FrameKind, origin, from topo.SwitchID, seq uint64, ok bool) {
	if len(buf) < frameHeaderLen {
		return 0, 0, 0, 0, false
	}
	kind = FrameKind(buf[1])
	origin = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[2:])))
	from = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[frameFromOffset:])))
	seq = binary.BigEndian.Uint64(buf[frameSeqOffset:])
	return kind, origin, from, seq, true
}

// PatchFrameFrom rewrites the From field of an encoded frame in place (and
// fixes up the CRC), so a forwarder can relay the same buffer without
// re-encoding the payload.
func PatchFrameFrom(buf []byte, from topo.SwitchID) error {
	if len(buf) < frameHeaderLen {
		return fmt.Errorf("lsa: frame too short to patch (%d bytes)", len(buf))
	}
	binary.BigEndian.PutUint32(buf[frameFromOffset:], uint32(int32(from)))
	binary.BigEndian.PutUint32(buf[frameHeaderLen-4:],
		frameCRC(buf[:frameHeaderLen-4], buf[frameHeaderLen:]))
	return nil
}

// crcTable is the frame checksum polynomial: Castagnoli, not IEEE, because
// amd64/arm64 check it with a dedicated instruction where the IEEE
// polynomial falls back to table lookups below the carry-less-multiply
// kernel's minimum length — and protocol frames live exactly in that small
// range. Under data-plane saturation the checksum (verified on every
// receive, recomputed on every in-place forward patch) is the single
// largest CPU item, so the polynomial choice is a throughput knob; the
// error-detection strength is equivalent, and the framing is internal to
// this implementation (both ends share this code), so no compatibility is
// given up.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frameCRC(header, payload []byte) uint32 {
	crc := crc32.Update(0, crcTable, header)
	return crc32.Update(crc, crcTable, payload)
}

// DecodeFrame decodes one frame from buf. It errors on truncation, version
// skew, unknown kinds, length mismatches, and checksum failures; it never
// panics on hostile input (see FuzzDecodeFrame). The returned payload
// aliases buf.
func DecodeFrame(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeFrameInto(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeFrameInto decodes one frame from buf into f, which may be a reused
// stack or scratch value — the allocation-free form of DecodeFrame. On error
// f is left in an unspecified state. f.Payload aliases buf.
func DecodeFrameInto(f *Frame, buf []byte) error {
	if len(buf) < frameHeaderLen {
		return fmt.Errorf("lsa: truncated frame header (%d bytes, need %d)", len(buf), frameHeaderLen)
	}
	f.Version = buf[0]
	f.Kind = FrameKind(buf[1])
	f.Origin = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[2:])))
	f.From = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[6:])))
	f.Seq = binary.BigEndian.Uint64(buf[10:])
	f.Payload = nil
	if f.Version != FrameVersion {
		return fmt.Errorf("lsa: frame version %d, want %d", f.Version, FrameVersion)
	}
	if !f.Kind.Valid() {
		return fmt.Errorf("lsa: unknown frame kind %d", buf[1])
	}
	length := binary.BigEndian.Uint32(buf[18:])
	if length > MaxFramePayload {
		return fmt.Errorf("lsa: frame payload length %d exceeds limit %d", length, MaxFramePayload)
	}
	want := binary.BigEndian.Uint32(buf[22:])
	payload := buf[frameHeaderLen:]
	if uint32(len(payload)) != length {
		return fmt.Errorf("lsa: frame payload is %d bytes, header says %d", len(payload), length)
	}
	if got := frameCRC(buf[:frameHeaderLen-4], payload); got != want {
		return fmt.Errorf("lsa: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	f.Payload = payload
	return nil
}
