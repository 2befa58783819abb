package lsr

import (
	"encoding/binary"
	"maps"
	"slices"

	"dgmc/internal/topo"
)

// Clone returns a copy of the instance that evolves apart from the
// original: same switch, same image contents, same staleness-protection
// state. The image is shared until either side changes a link in it —
// HandleLSA copies a shared image before its first write — and the
// routing table is shared because every recompute replaces it whole; the
// staleness map is copied. The schedule-exploration harness
// (internal/explore) uses it to branch a switch's state at a choice point.
func (i *Instance) Clone() *Instance {
	c := *i
	c.imageShared, c.seen = true, maps.Clone(i.seen)
	// The original's mark is written once, which keeps cloning a clone (a
	// snapshot restored twice) free of writes.
	if !i.imageShared {
		i.imageShared = true
	}
	return &c
}

// AppendState appends a canonical encoding of the instance's
// behavior-relevant state to buf: the up/down bit of every link in stable
// link order, the own-advertisement sequence number, and the per-originator
// staleness horizon. Two instances with equal encodings react identically
// to every future input. Pure bookkeeping (the version counter, the
// routing table, which is a function of the image) is excluded so that
// different event orders reaching the same image compare equal. It
// allocates nothing beyond growing buf for up to 64 originators.
func (i *Instance) AppendState(buf []byte) []byte {
	for k := 0; k < i.image.NumLinks(); k++ {
		if i.image.LinkAt(k).Down {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, i.mySeq)
	var scratch [64]topo.SwitchID
	ids := scratch[:0]
	for id := range i.seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(id)))
		buf = binary.BigEndian.AppendUint32(buf, i.seen[id])
	}
	return buf
}
