package obs

import (
	"fmt"
	"sort"
)

// This file is the offline half of sampled packet tracing: it joins the
// per-hop records each node kept locally (scraped as FlightDocs from
// /flightrec) into hop-by-hop path reports. The join key is (conn, src,
// seq) — the triple every data frame carries on the wire — and the hop
// chain reassembles through each record's Arg field, which holds the
// switch the packet arrived from. Latencies subtract the parent hop's
// timestamp at the upstream switch from the child's, so they are only
// meaningful to the extent the scraped nodes' clocks agree (exact for
// in-process clusters, NTP-grade for real deployments).

// PathHop is one switch's part in a sampled packet's journey.
type PathHop struct {
	// Switch is the node that wrote the record.
	Switch uint32 `json:"switch"`
	// Kind is what happened there: originate, forward, deliver, or a drop.
	Kind RecKind `json:"kind"`
	// AtNS is the record's timestamp at that switch.
	AtNS int64 `json:"at_ns"`
	// From is the switch the packet arrived from (meaningless for
	// originate hops).
	From uint32 `json:"from"`
	// LatencyNS is AtNS minus the upstream switch's forward/originate
	// timestamp for the same packet; negative-clamped to 0, and -1 when
	// the upstream record is missing (evicted or unscraped).
	LatencyNS int64 `json:"latency_ns"`
}

// PathReport is the reconstructed journey of one sampled packet.
type PathReport struct {
	Conn uint32 `json:"conn"`
	Src  uint32 `json:"src"`
	Seq  uint64 `json:"seq"`
	// Hops is every record found for the packet, time-ordered.
	Hops []PathHop `json:"hops"`
	// Complete means the report has the origination record, at least one
	// delivery, and an unbroken From-chain: every non-originate hop's
	// upstream record was found.
	Complete bool `json:"complete"`
	// Delivered counts deliver hops; Dropped counts drop hops.
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
	// EndToEndNS is the slowest origination→delivery latency (0 when no
	// delivery was found).
	EndToEndNS int64 `json:"end_to_end_ns"`
}

// Key renders the join key for logs and map use.
func (p PathReport) Key() string { return fmt.Sprintf("%d/%d/%d", p.Conn, p.Src, p.Seq) }

type pathKey struct {
	conn uint32
	src  uint32
	seq  uint64
}

// hopRecKinds reports whether a flight record is a per-hop trace record the
// reconstructor understands.
func hopRecKind(k RecKind) bool {
	switch k {
	case RecOriginate, RecForward, RecDeliver,
		RecDropNoEntry, RecDropNoRoute, RecDropHops, RecDropLoop:
		return true
	}
	return false
}

// ReconstructPaths joins the hop records of the given flight documents into
// per-packet path reports, ordered by (conn, src, seq). Docs may overlap or
// repeat (idempotent records dedupe by switch+kind+from); nil docs are
// skipped.
func ReconstructPaths(docs []*FlightDoc) []PathReport {
	type hopID struct {
		sw   uint32
		kind RecKind
		from uint32
	}
	groups := make(map[pathKey]map[hopID]PathHop)
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, rec := range doc.Hops {
			if !hopRecKind(rec.Kind) {
				continue
			}
			k := pathKey{conn: rec.Conn, src: rec.Src, seq: rec.Seq}
			g := groups[k]
			if g == nil {
				g = make(map[hopID]PathHop)
				groups[k] = g
			}
			id := hopID{sw: doc.Switch, kind: rec.Kind, from: uint32(rec.Arg)}
			if prev, ok := g[id]; ok && prev.AtNS <= rec.AtNS {
				continue // duplicate scrape of the same record; keep first
			}
			g[id] = PathHop{
				Switch: doc.Switch,
				Kind:   rec.Kind,
				AtNS:   rec.AtNS,
				From:   uint32(rec.Arg),
			}
		}
	}

	reports := make([]PathReport, 0, len(groups))
	for k, g := range groups {
		rep := PathReport{Conn: k.conn, Src: k.src, Seq: k.seq}

		// parentAt: for each switch, the timestamp at which the packet
		// left it (originate or forward record written at that switch).
		parentAt := make(map[uint32]int64, len(g))
		for id, h := range g {
			if id.kind == RecOriginate || id.kind == RecForward {
				if at, ok := parentAt[h.Switch]; !ok || h.AtNS < at {
					parentAt[h.Switch] = h.AtNS
				}
			}
		}

		var originAt int64
		hasOrigin := false
		chainOK := true
		for _, h := range g {
			switch h.Kind {
			case RecOriginate:
				hasOrigin = true
				originAt = h.AtNS
				h.LatencyNS = 0
			case RecDeliver:
				rep.Delivered++
				h.LatencyNS = hopLatency(parentAt, h)
			case RecForward:
				h.LatencyNS = hopLatency(parentAt, h)
			default: // drops
				rep.Dropped++
				h.LatencyNS = hopLatency(parentAt, h)
			}
			if h.Kind != RecOriginate && h.LatencyNS < 0 {
				chainOK = false
			}
			rep.Hops = append(rep.Hops, h)
		}
		sort.Slice(rep.Hops, func(i, j int) bool {
			if rep.Hops[i].AtNS != rep.Hops[j].AtNS {
				return rep.Hops[i].AtNS < rep.Hops[j].AtNS
			}
			return rep.Hops[i].Switch < rep.Hops[j].Switch
		})
		rep.Complete = hasOrigin && rep.Delivered > 0 && chainOK
		if hasOrigin && rep.Delivered > 0 {
			for _, h := range rep.Hops {
				if h.Kind == RecDeliver {
					if d := h.AtNS - originAt; d > rep.EndToEndNS {
						rep.EndToEndNS = d
					}
				}
			}
		}
		reports = append(reports, rep)
	}
	sort.Slice(reports, func(i, j int) bool {
		a, b := reports[i], reports[j]
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	return reports
}

// hopLatency resolves one hop's latency against the upstream departure
// timestamps: -1 when the upstream record is missing, clamped to 0 when
// clocks ran backwards between the two reads.
func hopLatency(parentAt map[uint32]int64, h PathHop) int64 {
	at, ok := parentAt[h.From]
	if !ok {
		return -1
	}
	if d := h.AtNS - at; d > 0 {
		return d
	}
	return 0
}
