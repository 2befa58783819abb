package lsa

import (
	"encoding/binary"
	"fmt"

	"dgmc/internal/topo"
)

// Data-plane framing. A FrameData frame uses the common wire frame (Origin
// = source switch, Seq = the source's data sequence, From = link-level
// forwarder, Hops = hop budget) and prefixes the application payload with
// the connection it rides:
//
//	conn (4, big-endian) | application payload
//
// The hop budget is decremented at every forwarding hop and the frame is
// dropped when it reaches zero — the only loop guard the data plane has
// while trees at different switches transiently disagree during
// reconvergence. Everything a hop rewrites (From, Hops, and at the origin
// Seq) sits in the frame's trailer, so forwarders relay the received buffer
// in place via BodySum.PatchDataForward — trailer fields and CRC — never
// re-encoding and never re-reading the payload.

// dataHeaderLen is conn(4).
const dataHeaderLen = 4

// MaxDataHops is the largest encodable hop budget.
const MaxDataHops = 255

// DataFrame is the decoded view of a FrameData frame's identity and
// data-plane header. Src, Seq and Hops mirror the outer frame's Origin, Seq
// and Hops; Payload aliases the decoded buffer.
type DataFrame struct {
	Conn    ConnID
	Src     topo.SwitchID
	Seq     uint64
	Hops    uint8
	Payload []byte
}

// AppendDataFrame appends a complete wire frame (header + data header +
// payload + trailer) for d to dst and returns the extended slice. from is
// the link-level sender stamped into the trailer.
func AppendDataFrame(dst []byte, d *DataFrame, from topo.SwitchID) []byte {
	f := Frame{Version: FrameVersion, Kind: FrameData, Origin: d.Src, From: from, Seq: d.Seq, Hops: d.Hops}
	return AppendFrameWith(dst, &f, func(b []byte) []byte {
		b = binary.BigEndian.AppendUint32(b, uint32(d.Conn))
		return append(b, d.Payload...)
	})
}

// DecodeDataInto parses the data-plane header out of an already-decoded
// FrameData frame into d. It errors on non-data frames and truncated data
// headers; it never panics on hostile input (see FuzzDecodeDataFrame).
// d.Payload aliases f.Payload.
func DecodeDataInto(d *DataFrame, f *Frame) error {
	if f.Kind != FrameData {
		return fmt.Errorf("lsa: frame kind %v is not a data frame", f.Kind)
	}
	if len(f.Payload) < dataHeaderLen {
		return fmt.Errorf("lsa: truncated data header (%d bytes, need %d)", len(f.Payload), dataHeaderLen)
	}
	d.Conn = ConnID(binary.BigEndian.Uint32(f.Payload))
	d.Hops = f.Hops
	d.Src = f.Origin
	d.Seq = f.Seq
	d.Payload = f.Payload[dataHeaderLen:]
	return nil
}

// PatchDataSeq rewrites the sequence number of the encoded data frame in
// buf, whose BodySum s is, and fixes the CRC. The batch-origination path
// encodes and sums one frame and restamps the sequence per packet, so a
// burst pays for the payload once instead of per copy.
func (s BodySum) PatchDataSeq(buf []byte, seq uint64) error {
	tr, err := trailerOf(buf)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint64(tr[trailerSeqOff:], seq)
	from := topo.SwitchID(int32(binary.BigEndian.Uint32(tr[trailerFromOff:])))
	binary.BigEndian.PutUint32(tr[trailerCRCOff:], s.seal(from, seq, tr[trailerHopsOff]))
	return nil
}

// PatchDataForward rewrites the link-level From field and the hop budget of
// the encoded data frame in buf, whose BodySum s is, and fixes the CRC, so a
// forwarder can relay the buffer it received without re-encoding.
func (s BodySum) PatchDataForward(buf []byte, from topo.SwitchID, hops uint8) error {
	tr, err := trailerOf(buf)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(tr[trailerFromOff:], uint32(int32(from)))
	tr[trailerHopsOff] = hops
	binary.BigEndian.PutUint32(tr[trailerCRCOff:], s.seal(from, binary.BigEndian.Uint64(tr[trailerSeqOff:]), hops))
	return nil
}

// PatchDataSeq is BodySum.PatchDataSeq for a caller without the state: it
// sums the frame first.
func PatchDataSeq(buf []byte, seq uint64) error {
	return SumBody(buf).PatchDataSeq(buf, seq)
}

// PatchDataForward is BodySum.PatchDataForward for a caller without the
// state: it sums the frame first.
func PatchDataForward(buf []byte, from topo.SwitchID, hops uint8) error {
	return SumBody(buf).PatchDataForward(buf, from, hops)
}
