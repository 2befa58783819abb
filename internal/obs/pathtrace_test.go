package obs

import (
	"testing"
)

// docFor builds a FlightDoc for switch sw with the given hop records.
func docFor(sw uint32, hops ...FlightRecord) *FlightDoc {
	return &FlightDoc{Switch: sw, Hops: hops}
}

func hop(kind RecKind, conn, src uint32, seq uint64, from uint32, at int64) FlightRecord {
	return FlightRecord{Kind: kind, Conn: conn, Src: src, Seq: seq, Arg: uint64(from), AtNS: at}
}

// TestReconstructLinearPath joins records from a 4-switch line
// 1 -> 2 -> 3 -> 4 where 4 delivers.
func TestReconstructLinearPath(t *testing.T) {
	docs := []*FlightDoc{
		docFor(1, hop(RecOriginate, 7, 1, 40, 0, 1000)),
		docFor(2, hop(RecForward, 7, 1, 40, 1, 1500)),
		docFor(3, hop(RecForward, 7, 1, 40, 2, 2100)),
		docFor(4, hop(RecDeliver, 7, 1, 40, 3, 2800)),
	}
	reports := ReconstructPaths(docs)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	rep := reports[0]
	if !rep.Complete {
		t.Fatalf("path not complete: %+v", rep)
	}
	if rep.Conn != 7 || rep.Src != 1 || rep.Seq != 40 {
		t.Fatalf("key = %s, want 7/1/40", rep.Key())
	}
	if len(rep.Hops) != 4 {
		t.Fatalf("hops = %d, want 4", len(rep.Hops))
	}
	wantLat := []int64{0, 500, 600, 700}
	for i, h := range rep.Hops {
		if h.LatencyNS != wantLat[i] {
			t.Fatalf("hop[%d] latency = %d, want %d (%+v)", i, h.LatencyNS, wantLat[i], h)
		}
	}
	if rep.Delivered != 1 || rep.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 1/0", rep.Delivered, rep.Dropped)
	}
	if rep.EndToEndNS != 1800 {
		t.Fatalf("e2e = %d, want 1800", rep.EndToEndNS)
	}
}

// TestReconstructFanout: origin 1 fans out to 2 and 3; both deliver, 3 also
// forwards to 4 where the packet is dropped on hops.
func TestReconstructFanout(t *testing.T) {
	docs := []*FlightDoc{
		docFor(1, hop(RecOriginate, 9, 1, 8, 0, 100)),
		docFor(2, hop(RecDeliver, 9, 1, 8, 1, 250)),
		docFor(3,
			hop(RecDeliver, 9, 1, 8, 1, 300),
			hop(RecForward, 9, 1, 8, 1, 310),
		),
		docFor(4, hop(RecDropHops, 9, 1, 8, 3, 460)),
	}
	reports := ReconstructPaths(docs)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	rep := reports[0]
	if !rep.Complete {
		t.Fatalf("fanout path should be complete: %+v", rep)
	}
	if rep.Delivered != 2 || rep.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 2/1", rep.Delivered, rep.Dropped)
	}
	if rep.EndToEndNS != 200 {
		t.Fatalf("e2e = %d, want 200 (slowest deliver)", rep.EndToEndNS)
	}
	// The drop at 4 came through 3's forward record: 460 - 310 = 150.
	var dropLat int64 = -2
	for _, h := range rep.Hops {
		if h.Kind == RecDropHops {
			dropLat = h.LatencyNS
		}
	}
	if dropLat != 150 {
		t.Fatalf("drop latency = %d, want 150", dropLat)
	}
}

// TestReconstructIncomplete: a missing upstream record (evicted ring) makes
// the chain unresolvable; the report survives but is not Complete.
func TestReconstructIncomplete(t *testing.T) {
	docs := []*FlightDoc{
		docFor(1, hop(RecOriginate, 5, 1, 16, 0, 100)),
		// switch 2's forward record was evicted
		docFor(3, hop(RecDeliver, 5, 1, 16, 2, 900)),
	}
	reports := ReconstructPaths(docs)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Complete {
		t.Fatalf("broken chain must not be complete: %+v", rep)
	}
	if rep.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", rep.Delivered)
	}
	// E2E is still computable (origin + deliver present).
	if rep.EndToEndNS != 800 {
		t.Fatalf("e2e = %d, want 800", rep.EndToEndNS)
	}
	for _, h := range rep.Hops {
		if h.Kind == RecDeliver && h.LatencyNS != -1 {
			t.Fatalf("deliver latency = %d, want -1 (missing upstream)", h.LatencyNS)
		}
	}
}

// TestReconstructMultiplePackets groups by (conn, src, seq) and orders the
// result deterministically.
func TestReconstructMultiplePackets(t *testing.T) {
	docs := []*FlightDoc{
		docFor(1,
			hop(RecOriginate, 2, 1, 8, 0, 10),
			hop(RecOriginate, 1, 1, 8, 0, 20),
			hop(RecOriginate, 1, 1, 16, 0, 30),
		),
		docFor(2,
			hop(RecDeliver, 2, 1, 8, 1, 15),
			hop(RecDeliver, 1, 1, 8, 1, 25),
			hop(RecDeliver, 1, 1, 16, 1, 35),
		),
		nil, // nil docs are tolerated
	}
	reports := ReconstructPaths(docs)
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	wantKeys := []string{"1/1/8", "1/1/16", "2/1/8"}
	for i, w := range wantKeys {
		if reports[i].Key() != w {
			t.Fatalf("report[%d] = %s, want %s", i, reports[i].Key(), w)
		}
		if !reports[i].Complete {
			t.Fatalf("report %s should be complete", w)
		}
	}
}

// TestReconstructDuplicateScrapes: scraping the same node twice must not
// duplicate hops.
func TestReconstructDuplicateScrapes(t *testing.T) {
	d1 := docFor(1, hop(RecOriginate, 3, 1, 8, 0, 100))
	d2 := docFor(2, hop(RecDeliver, 3, 1, 8, 1, 200))
	reports := ReconstructPaths([]*FlightDoc{d1, d2, d1, d2})
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if len(reports[0].Hops) != 2 {
		t.Fatalf("hops = %d, want 2 (dedup)", len(reports[0].Hops))
	}
}
