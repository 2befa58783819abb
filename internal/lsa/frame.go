package lsa

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dgmc/internal/topo"
)

// FrameVersion is the current wire-framing version. Receivers reject other
// versions: the framing carries no negotiation, so a version skew between
// daemons is a deployment error to surface, not to paper over. Version 2
// moved every field a forwarder rewrites into a trailer (see Frame).
const FrameVersion = 2

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

// Frame is the unit a live transport sends on the wire: one encoded
// advertisement, resync message or data payload between a header of what is
// fixed for the frame's life and a trailer of what a hop rewrites:
//
//	version (1) | kind (1) | origin (4) | length (4) | payload | from (4) | seq (8) | hops (1) | crc32 (4)
//
// The CRC covers every byte ahead of it, in wire order. A relay changes only
// trailer fields, so with the checksum state as of the trailer's first byte —
// which DecodeFrameInto keeps from its verification pass (BodySum) — it
// re-sums those 13 bytes, not the payload.
//
// Origin and Seq identify a flood network-wide for duplicate suppression;
// From is the link-level sender, updated at each store-and-forward hop so
// receivers know which neighbor not to forward back to. For point-to-point
// resync frames Origin == From and Seq is the sender's next flood sequence
// (unused by receivers beyond tracing). Hops is the data plane's hop budget
// (see DataFrame); control frames carry zero.
type Frame struct {
	Version uint8
	Kind    FrameKind
	Origin  topo.SwitchID
	From    topo.SwitchID
	Seq     uint64
	Hops    uint8
	Payload []byte

	// body is set by DecodeFrameInto; see BodySum.
	body BodySum
}

// frameHeaderLen is version(1) + kind(1) + origin(4) + length(4).
const frameHeaderLen = 10

// frameTrailerLen is from(4) + seq(8) + hops(1) + crc32(4); the offsets
// below are from the trailer's first byte.
const (
	frameTrailerLen = 17
	trailerFromOff  = 0
	trailerSeqOff   = 4
	trailerHopsOff  = 12
	trailerCRCOff   = 13
)

// frameOverhead is what framing adds to a payload.
const frameOverhead = frameHeaderLen + frameTrailerLen

// MaxFramePayload bounds the payload length a decoder will accept. It is
// far above anything the protocol produces (a proposal tree plus a stamp
// for a few hundred switches is a few KB) while keeping a hostile length
// field from turning into a large allocation.
const MaxFramePayload = 1 << 20

// EncodeFrame encodes f. The CRC covers the header, the payload and the
// trailer fields, so any truncation or corruption of any is detected.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, frameOverhead+len(f.Payload)), f)
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
// payload slice entirely. f.Payload is ignored; the length field is patched
// after payloadFn returns, so the output is byte-identical to EncodeFrame
// over the same payload bytes. payloadFn must only append.
func AppendFrameWith(dst []byte, f *Frame, payloadFn func([]byte) []byte) []byte {
	base := len(dst)
	dst = append(dst, f.Version, byte(f.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.Origin)))
	dst = binary.BigEndian.AppendUint32(dst, 0) // length: patched below
	dst = payloadFn(dst)
	binary.BigEndian.PutUint32(dst[base+frameHeaderLen-4:], uint32(len(dst)-base-frameHeaderLen))
	body := sumBody(dst[base:])
	dst = append(dst, make([]byte, frameTrailerLen)...)
	body.putTrailer(dst[len(dst)-frameTrailerLen:], f.From, f.Seq, f.Hops)
	return dst
}

// PeekFrameMeta reads the kind and identity fields (origin, link-level
// from, outer sequence) straight out of an encoded frame's fixed-offset
// header and trailer, taking buf to be exactly one frame, without validating
// the length or CRC — for fabric-level classification (e.g. the loss knob's
// per-frame drop hash) that must not pay for a full decode on every send. ok
// is false when buf is shorter than an empty frame.
func PeekFrameMeta(buf []byte) (kind FrameKind, origin, from topo.SwitchID, seq uint64, ok bool) {
	if len(buf) < frameOverhead {
		return 0, 0, 0, 0, false
	}
	tr := buf[len(buf)-frameTrailerLen:]
	kind = FrameKind(buf[1])
	origin = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[2:])))
	from = topo.SwitchID(int32(binary.BigEndian.Uint32(tr[trailerFromOff:])))
	seq = binary.BigEndian.Uint64(tr[trailerSeqOff:])
	return kind, origin, from, seq, true
}

// crcTable is the frame checksum polynomial: Castagnoli, not IEEE, because
// amd64/arm64 check it with a dedicated instruction where the IEEE
// polynomial falls back to table lookups for short inputs — and protocol
// frames are short. Under data-plane saturation the checksum (verified over
// every byte on every receive) is the single largest CPU item, so the
// polynomial is a throughput knob; the error-detection strength is
// equivalent, and the framing is internal to this implementation (both ends
// share this code), so no compatibility is given up.
//
// The sum itself runs in crc32c (crc32c.go): on amd64 with SSE4.2 and
// PCLMULQDQ a kernel that splits the whole body into three interleaved
// instruction streams — the CRC32 instruction has a latency of three
// cycles and a throughput of one, so one stream idles two thirds of the
// unit — and joins them by carry-less multiplication; the trailer is
// sealed from register values (BodySum.seal). Every other host uses
// crc32.Update with this table, which the tests hold the kernel to.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BodySum is the frame checksum's running state after the header and the
// payload — every byte ahead of the trailer, none of which a forwarder
// changes. Whoever holds it for an encoded frame can rewrite trailer fields
// and re-seal the frame by summing the trailer alone. A state taken from a
// decode vouches only for the bytes that decode verified: a buffer damaged
// in memory afterwards leaves with a checksum the next hop refuses.
type BodySum uint32

// SumBody computes the BodySum of the encoded frame in buf by summing its
// header and payload — one pass over the frame, so worth it only ahead of
// several patches (a batch restamping one frame); a receiver already has
// the state from its decode (Frame.BodySum). A buffer too short to be a
// frame has no body to sum, and every patch refuses it whatever the state.
func SumBody(buf []byte) BodySum {
	if len(buf) < frameOverhead {
		return 0
	}
	return sumBody(buf[:len(buf)-frameTrailerLen])
}

func sumBody(body []byte) BodySum {
	return BodySum(crc32c(0, body))
}

// seal extends s over trailer fields with the given values and returns the
// frame's CRC. The fields come from the caller, not from the buffer: a
// patch has just stored them, and reading them back would wait on those
// stores.
func (s BodySum) seal(from topo.SwitchID, seq uint64, hops uint8) uint32 {
	return crc32cSeal(uint32(s), uint32(int32(from)), seq, hops)
}

// putTrailer writes a whole trailer, CRC included.
func (s BodySum) putTrailer(trailer []byte, from topo.SwitchID, seq uint64, hops uint8) {
	binary.BigEndian.PutUint32(trailer[trailerFromOff:], uint32(int32(from)))
	binary.BigEndian.PutUint64(trailer[trailerSeqOff:], seq)
	trailer[trailerHopsOff] = hops
	binary.BigEndian.PutUint32(trailer[trailerCRCOff:], s.seal(from, seq, hops))
}

// trailerOf returns the trailer of the encoded frame in buf.
func trailerOf(buf []byte) ([]byte, error) {
	if len(buf) < frameOverhead {
		return nil, fmt.Errorf("lsa: frame too short to patch (%d bytes)", len(buf))
	}
	return buf[len(buf)-frameTrailerLen:], nil
}

// PatchFrom rewrites the From field of the encoded frame in buf, whose
// BodySum s is, and fixes up the CRC — so a forwarder can relay the buffer
// it received without re-encoding or re-reading the payload.
func (s BodySum) PatchFrom(buf []byte, from topo.SwitchID) error {
	tr, err := trailerOf(buf)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(tr[trailerFromOff:], uint32(int32(from)))
	seq, hops := binary.BigEndian.Uint64(tr[trailerSeqOff:]), tr[trailerHopsOff]
	binary.BigEndian.PutUint32(tr[trailerCRCOff:], s.seal(from, seq, hops))
	return nil
}

// PatchFrameFrom is BodySum.PatchFrom for a caller without the state: it
// sums the frame first.
func PatchFrameFrom(buf []byte, from topo.SwitchID) error {
	return SumBody(buf).PatchFrom(buf, from)
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
// f is left in an unspecified state. f.Payload aliases buf. The version is
// judged first, on its own: nothing else about a foreign version's layout,
// its minimum length included, means what it means here.
func DecodeFrameInto(f *Frame, buf []byte) error {
	if len(buf) > 0 && buf[0] != FrameVersion {
		return fmt.Errorf("lsa: frame version %d, want %d", buf[0], FrameVersion)
	}
	if len(buf) < frameOverhead {
		return fmt.Errorf("lsa: truncated frame (%d bytes, need %d)", len(buf), frameOverhead)
	}
	tr := buf[len(buf)-frameTrailerLen:]
	f.Version = buf[0]
	f.Kind = FrameKind(buf[1])
	f.Origin = topo.SwitchID(int32(binary.BigEndian.Uint32(buf[2:])))
	f.From = topo.SwitchID(int32(binary.BigEndian.Uint32(tr[trailerFromOff:])))
	f.Seq = binary.BigEndian.Uint64(tr[trailerSeqOff:])
	f.Hops = tr[trailerHopsOff]
	f.Payload = nil
	if !f.Kind.Valid() {
		return fmt.Errorf("lsa: unknown frame kind %d", buf[1])
	}
	length := binary.BigEndian.Uint32(buf[frameHeaderLen-4:])
	if length > MaxFramePayload {
		return fmt.Errorf("lsa: frame payload length %d exceeds limit %d", length, MaxFramePayload)
	}
	payload := buf[frameHeaderLen : len(buf)-frameTrailerLen]
	if uint32(len(payload)) != length {
		return fmt.Errorf("lsa: frame payload is %d bytes, header says %d", len(payload), length)
	}
	f.body = sumBody(buf[:len(buf)-frameTrailerLen])
	want := binary.BigEndian.Uint32(tr[trailerCRCOff:])
	if got := f.body.seal(f.From, f.Seq, f.Hops); got != want {
		return fmt.Errorf("lsa: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	f.Payload = payload
	return nil
}

// BodySum returns the checksum state DecodeFrameInto reached at the trailer
// of the buffer f was decoded from, for patching that buffer. It is
// meaningless on a Frame that was not decoded.
func (f *Frame) BodySum() BodySum { return f.body }
