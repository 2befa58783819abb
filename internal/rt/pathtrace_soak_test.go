package rt

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// TestPathReconstructionSoak is the tentpole's acceptance soak: a 16-switch
// live cluster — over both transports — carries sampled traffic, each node
// exposes a real admin HTTP endpoint, and the offline reconstructor must
// rebuild at least one sampled packet's complete hop-by-hop path with
// per-hop latencies purely from what /flightrec and /healthz serve over the
// wire. No in-process shortcuts: the test's only inputs past the pump are
// HTTP GETs. Runs race-enabled in CI as a blocking gate.
func TestPathReconstructionSoak(t *testing.T) {
	const rows, cols = 4, 4
	const sampleEvery = 4

	t.Run("chan", func(t *testing.T) {
		runPathSoak(t, rows, cols, sampleEvery, NewChanFabric(rows*cols))
	})
	t.Run("udp", func(t *testing.T) {
		f, err := NewUDPFabric(rows * cols)
		if err != nil {
			t.Fatal(err)
		}
		runPathSoak(t, rows, cols, sampleEvery, f)
	})
}

func runPathSoak(t *testing.T, rows, cols, sampleEvery int, fabric Fabric) {
	conn := lsa.ConnID(1)
	g, err := topo.Grid(rows, cols, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var led atomic.Pointer[workload.Ledger]
	led.Store(workload.NewLedger())
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		// Ring sized so a few hundred packets of forward/deliver events
		// cannot evict the sampled-hop evidence before the scrape.
		FlightRecords: 4096, SampleEvery: sampleEvery,
		DataHandler: func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			led.Load().RecordRecv(at, workload.PacketID{Src: src, Seq: seq})
		},
	}, fabric)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One real admin HTTP server per daemon, exactly as dgmcd wires it.
	servers := make(map[topo.SwitchID]*httptest.Server)
	for _, n := range c.Nodes() {
		n := n
		servers[n.ID()] = httptest.NewServer(obs.NewAdminMux(obs.AdminConfig{
			Flight: n.FlightDoc,
			Health: func() any { return n.Health() },
		}))
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	// Members in opposite corners plus mid-grid: multi-hop tree paths.
	members := []topo.SwitchID{0, 3, 12, 15, 5}
	for _, sw := range members {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	expect := func(src topo.SwitchID) []topo.SwitchID {
		var out []topo.SwitchID
		for _, sw := range members {
			if sw != src {
				out = append(out, sw)
			}
		}
		return out
	}
	l := workload.NewLedger()
	led.Store(l)
	if err := workload.Pump(c, l, workload.TrafficConfig{
		Conn: conn, Sources: members, Packets: 120, Expect: expect,
		SampleEvery: sampleEvery,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(50*time.Millisecond, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if sum := l.Summary(); sum.Ratio() < 0.99 {
		t.Fatalf("soak delivery ratio %.4f < 0.99: %+v", sum.Ratio(), sum)
	}

	// Scrape: everything below this line came over HTTP.
	httpGet := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
		}
		return body
	}
	var docs []*obs.FlightDoc
	for id, srv := range servers {
		var doc obs.FlightDoc
		if err := json.Unmarshal(httpGet(srv.URL+"/flightrec"), &doc); err != nil {
			t.Fatalf("switch %d /flightrec: %v", id, err)
		}
		if doc.Switch != uint32(id) {
			t.Fatalf("switch %d served doc for switch %d", id, doc.Switch)
		}
		docs = append(docs, &doc)

		var h NodeHealth
		if err := json.Unmarshal(httpGet(srv.URL+"/healthz"), &h); err != nil {
			t.Fatalf("switch %d /healthz: %v", id, err)
		}
		if !h.Converged {
			t.Fatalf("switch %d /healthz not converged after settle: %+v", id, h)
		}
	}

	reports := obs.ReconstructPaths(docs)
	if len(reports) == 0 {
		t.Fatal("no sampled paths reconstructed from admin scrapes")
	}
	// Every packet the pump stamped as sampled must have left trace evidence,
	// and nothing else may appear: the pump's mirror of the sampling decision
	// and the data plane's must agree exactly.
	stamped := make(map[string]bool)
	for _, id := range l.SampledIDs() {
		stamped[(obs.PathReport{Conn: uint32(conn), Src: uint32(id.Src), Seq: id.Seq}).Key()] = true
	}
	for _, rep := range reports {
		if !stamped[rep.Key()] {
			t.Fatalf("reconstructed packet %s was not stamped by the pump", rep.Key())
		}
		delete(stamped, rep.Key())
	}
	for key := range stamped {
		t.Fatalf("pump-stamped packet %s left no trace evidence", key)
	}
	complete := 0
	for _, rep := range reports {
		if rep.Seq%uint64(sampleEvery) != 0 {
			t.Fatalf("unsampled packet %s reconstructed", rep.Key())
		}
		if !rep.Complete {
			continue
		}
		complete++
		if len(rep.Hops) < 2 {
			t.Fatalf("complete path %s has %d hops, want >= 2", rep.Key(), len(rep.Hops))
		}
		if rep.Hops[0].Kind != obs.RecOriginate {
			t.Fatalf("complete path %s does not start at origination: %+v", rep.Key(), rep.Hops[0])
		}
		if rep.Delivered == 0 || rep.EndToEndNS <= 0 {
			t.Fatalf("complete path %s has no timed delivery: %+v", rep.Key(), rep)
		}
		for _, h := range rep.Hops[1:] {
			if h.LatencyNS < 0 {
				t.Fatalf("complete path %s hop at sw%d has unresolved latency", rep.Key(), h.Switch)
			}
		}
	}
	if complete == 0 {
		t.Fatalf("no complete hop-by-hop path among %d reconstructed reports", len(reports))
	}
	t.Logf("reconstructed %d sampled paths (%d complete) from %d admin scrapes",
		len(reports), complete, len(docs))
}
