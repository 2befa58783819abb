package lsa

import (
	"encoding/binary"
	"fmt"

	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// Resync messages are the gap-recovery exchange of the D-GMC protocol (the
// OSPF database-description analogue, see internal/core's resync logic):
// a switch whose received stamp R trails its expected stamp E asks a
// neighbor to replay the per-origin event suffixes beyond R. They travel
// point-to-point between neighbors, never flooded.

// ResyncRequest asks a neighbor to replay the event LSAs the requester is
// missing. R is the requester's received stamp; the peer replays exactly
// the per-origin suffixes beyond it.
type ResyncRequest struct {
	Conn ConnID
	From topo.SwitchID
	R    stamp.Stamp
}

// ResyncResponse carries the replayed LSAs (in the peer's application
// order, ending with a pseudo-proposal when the peer has an installed
// topology). The batch is consumed by the ordinary ReceiveLSA path.
type ResyncResponse struct {
	Conn  ConnID
	From  topo.SwitchID
	Batch []*MC
}

// Marshal encodes a resync request.
func (r *ResyncRequest) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, 12+4+4*len(r.R)))
}

// AppendMarshal appends the request's encoding to dst and returns the
// extended slice.
func (r *ResyncRequest) AppendMarshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Conn))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(r.From)))
	dst = r.R.AppendBinary(dst)
	return dst
}

// DecodeResyncRequest decodes a buffer produced by ResyncRequest.Marshal.
func DecodeResyncRequest(buf []byte) (*ResyncRequest, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("lsa: truncated resync request (%d bytes)", len(buf))
	}
	r := &ResyncRequest{
		Conn: ConnID(binary.BigEndian.Uint32(buf)),
		From: topo.SwitchID(int32(binary.BigEndian.Uint32(buf[4:]))),
	}
	var rest []byte
	var err error
	r.R, rest, err = stamp.DecodeBinary(buf[8:])
	if err != nil {
		return nil, fmt.Errorf("lsa: resync request stamp: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lsa: resync request: %d trailing bytes", len(rest))
	}
	return r, nil
}

// Marshal encodes a resync response. Each batched LSA is length-prefixed
// so the batch can be decoded without trusting inner lengths.
func (r *ResyncResponse) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, 16))
}

// AppendMarshal appends the response's encoding to dst and returns the
// extended slice.
func (r *ResyncResponse) AppendMarshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Conn))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(r.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Batch)))
	for _, m := range r.Batch {
		lenAt := len(dst)
		dst = binary.BigEndian.AppendUint32(dst, 0)
		dst = m.AppendMarshal(dst)
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst
}

// Split cuts r into responses that each encode, frame header and trailer
// included, to at most frameLimit bytes, for a sender bound to a datagram
// size. Each part is a response in its own right over a run of the batch:
// order within and across parts is the batch's, so the closing
// pseudo-proposal rides in the last one; every part holds at least one LSA,
// so an LSA bigger than the limit still travels, alone. An empty batch
// yields one empty part.
func (r *ResyncResponse) Split(frameLimit int) []*ResyncResponse {
	const fixed = frameOverhead + 12 // frame header and trailer; conn, from, count
	var parts []*ResyncResponse
	var scratch []byte
	start, size := 0, fixed
	for i, m := range r.Batch {
		scratch = m.AppendMarshal(scratch[:0])
		if i > start && size+4+len(scratch) > frameLimit {
			parts = append(parts, &ResyncResponse{Conn: r.Conn, From: r.From, Batch: r.Batch[start:i]})
			start, size = i, fixed
		}
		size += 4 + len(scratch)
	}
	return append(parts, &ResyncResponse{Conn: r.Conn, From: r.From, Batch: r.Batch[start:]})
}

// DecodeResyncResponse decodes a buffer produced by ResyncResponse.Marshal.
func DecodeResyncResponse(buf []byte) (*ResyncResponse, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("lsa: truncated resync response (%d bytes)", len(buf))
	}
	r := &ResyncResponse{
		Conn: ConnID(binary.BigEndian.Uint32(buf)),
		From: topo.SwitchID(int32(binary.BigEndian.Uint32(buf[4:]))),
	}
	count := binary.BigEndian.Uint32(buf[8:])
	buf = buf[12:]
	if count > uint32(len(buf)) {
		// Each LSA needs at least one byte; an impossible count is a
		// malformed (or hostile) message, not an allocation request.
		return nil, fmt.Errorf("lsa: resync response claims %d LSAs in %d bytes", count, len(buf))
	}
	r.Batch = make([]*MC, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("lsa: resync response: truncated LSA %d length", i)
		}
		l := binary.BigEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < l {
			return nil, fmt.Errorf("lsa: resync response: LSA %d needs %d bytes, have %d", i, l, len(buf))
		}
		mc, nm, err := Unmarshal(buf[:l])
		if err != nil {
			return nil, fmt.Errorf("lsa: resync response LSA %d: %w", i, err)
		}
		if mc == nil || nm != nil {
			return nil, fmt.Errorf("lsa: resync response LSA %d is not an MC LSA", i)
		}
		r.Batch = append(r.Batch, mc)
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("lsa: resync response: %d trailing bytes", len(buf))
	}
	return r, nil
}
