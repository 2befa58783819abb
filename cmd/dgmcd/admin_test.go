package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// syncBuffer collects a node's trace lines, written from its goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestThreeDaemonAdminSurfaces boots three daemons over UDP loopback with
// admin listeners, drives one membership change, and then — from the scraped
// HTTP surfaces alone — reconstructs the event→compute→flood→recv→install
// chain of that change and reads its measured convergence latency. Daemon 0
// also runs with -v: its trace lines go to a writer beside the spans.
func TestThreeDaemonAdminSurfaces(t *testing.T) {
	ports := reservePorts(t, 3)
	path := writeTopoFile(t, ports)
	tf, err := rt.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}

	var trace syncBuffer
	daemons := make([]*daemon, 3)
	for i := range daemons {
		cfg := daemonConfig{
			id:        topo.SwitchID(i),
			topology:  tf,
			algorithm: route.SPH{},
			resync:    100 * time.Millisecond,
			admin:     "127.0.0.1:0",
		}
		if i == 0 {
			cfg.traceW = &trace
		}
		d, err := newDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		daemons[i] = d
		if d.adminAddr() == "" {
			t.Fatalf("daemon %d has no admin listener", i)
		}
	}

	var out strings.Builder
	if _, err := daemons[0].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}
	// The join is handled before the command returns, so its trace line is
	// already written.
	if got := trace.String(); !strings.Contains(got, "sw0 conn7 chain0/1 [event] ") {
		t.Fatalf("-v trace lacks the join's event line:\n%s", got)
	}
	if _, err := daemons[2].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		agreed := true
		for _, d := range daemons {
			snap, ok := d.node.Connection(7)
			if !ok || len(snap.Members) != 2 || snap.Topology == nil ||
				!snap.R.Equal(snap.C) || !snap.R.Geq(snap.E) {
				agreed = false
				break
			}
		}
		if agreed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemons did not agree on conn 7 within 15s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /metrics: Prometheus text with live protocol counters on every daemon.
	for i, d := range daemons {
		code, body := httpGet(t, "http://"+d.adminAddr()+"/metrics")
		if code != 200 {
			t.Fatalf("daemon %d /metrics = %d", i, code)
		}
		for _, want := range []string{
			"# TYPE dgmc_machine_installs_total counter",
			fmt.Sprintf(`dgmc_machine_installs_total{switch="%d"}`, i),
			"# TYPE dgmc_lsa_batch_seconds histogram",
			`_bucket{`,
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("daemon %d /metrics missing %q:\n%s", i, want, body)
			}
		}
		if strings.Contains(body, fmt.Sprintf(`dgmc_machine_installs_total{switch="%d"} 0`, i)) {
			t.Fatalf("daemon %d reports zero installs after convergence", i)
		}
	}

	// /state: every daemon shows conn 7 with both members and a topology.
	for i, d := range daemons {
		code, body := httpGet(t, "http://"+d.adminAddr()+"/state")
		if code != 200 {
			t.Fatalf("daemon %d /state = %d", i, code)
		}
		var doc struct {
			Switch      int `json:"switch"`
			Connections []struct {
				Conn     int    `json:"conn"`
				Members  []int  `json:"members"`
				R        string `json:"r"`
				C        string `json:"c"`
				Topology string `json:"topology"`
			} `json:"connections"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("daemon %d /state not JSON: %v", i, err)
		}
		if doc.Switch != i || len(doc.Connections) != 1 {
			t.Fatalf("daemon %d /state = %+v", i, doc)
		}
		conn := doc.Connections[0]
		if conn.Conn != 7 || len(conn.Members) != 2 || conn.Topology == "" || conn.R != conn.C {
			t.Fatalf("daemon %d conn state = %+v", i, conn)
		}
	}

	// /spans: merge the three daemons' span documents and reconstruct the
	// full distributed chain of switch 0's join (chain "0/1").
	merged := map[string]obs.Span{}
	for i, d := range daemons {
		code, body := httpGet(t, "http://"+d.adminAddr()+"/spans")
		if code != 200 {
			t.Fatalf("daemon %d /spans = %d", i, code)
		}
		var doc struct {
			Spans []obs.Span `json:"spans"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("daemon %d /spans not JSON: %v", i, err)
		}
		if len(doc.Spans) == 0 {
			t.Fatalf("daemon %d collected no spans", i)
		}
		for _, sp := range doc.Spans {
			agg := merged[sp.Chain]
			agg.Chain = sp.Chain
			agg.Computations += sp.Computations
			agg.Floods += sp.Floods
			agg.Recvs += sp.Recvs
			agg.Installs += sp.Installs
			agg.Steps = append(agg.Steps, sp.Steps...)
			if agg.StartNS == 0 || (sp.StartNS > 0 && sp.StartNS < agg.StartNS) {
				agg.StartNS = sp.StartNS
			}
			if sp.EndNS > agg.EndNS {
				agg.EndNS = sp.EndNS
			}
			merged[sp.Chain] = agg
		}
	}
	chain, ok := merged["0/1"]
	if !ok {
		t.Fatalf("no merged span for switch 0's first event; have %v", keys(merged))
	}
	// The full causal sequence for one membership change: the origin's
	// event, at least one computation and flood, receipt at the other
	// switches, and an installation at every switch.
	kinds := map[string]int{}
	for _, step := range chain.Steps {
		kinds[step.Kind]++
	}
	if kinds["event"] != 1 {
		t.Errorf("chain 0/1 has %d event steps, want 1", kinds["event"])
	}
	if chain.Computations == 0 || kinds["compute"] == 0 {
		t.Error("chain 0/1 shows no computation")
	}
	if chain.Floods == 0 || kinds["flood"] == 0 {
		t.Error("chain 0/1 shows no flood")
	}
	if kinds["recv"] == 0 {
		t.Error("chain 0/1 was never received at another switch")
	}
	// The two joins are issued back to back and race: a switch that holds
	// switch 2's join before chain 0/1's proposal reaches it installs under
	// chain 2/1 instead — superseded, not lost. Chain 0/1 installs at least
	// at its origin, and every switch installs under one of the two.
	installed := map[int]bool{}
	for _, id := range []string{"0/1", "2/1"} {
		for _, step := range merged[id].Steps {
			if step.Kind == "install" {
				installed[step.Switch] = true
			}
		}
	}
	if chain.Installs == 0 || len(installed) < 3 {
		t.Errorf("chain 0/1 installed at %d switches, chains 0/1 and 2/1 together at %d, want all 3",
			chain.Installs, len(installed))
	}
	// Convergence latency across daemons: wall-clock timestamps are shared
	// (UnixNano), so last install minus the event is the measured latency.
	var eventNS, lastInstallNS int64
	for _, step := range chain.Steps {
		switch step.Kind {
		case "event":
			eventNS = step.AtNS
		case "install":
			if step.AtNS > lastInstallNS {
				lastInstallNS = step.AtNS
			}
		}
	}
	latency := lastInstallNS - eventNS
	if latency <= 0 {
		t.Fatalf("measured convergence latency %d ns, want > 0", latency)
	}
	if latency > int64(15*time.Second) {
		t.Fatalf("measured convergence latency %v is absurd", time.Duration(latency))
	}
	t.Logf("chain 0/1: %d computations, %d floods, %d installs, converged in %v",
		chain.Computations, chain.Floods, chain.Installs, time.Duration(latency))

	// pprof rides the same listener.
	if code, _ := httpGet(t, "http://"+daemons[0].adminAddr()+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof endpoint = %d", code)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDaemonHealthAndFlightRecorder boots a recorder-enabled 3-daemon UDP
// fabric, pushes live traffic, and checks the PR-9 surfaces end to end: the
// `health` REPL verb, the /healthz JSON document, and a /flightrec dump that
// carries the forwarded packet's sampled hop records.
func TestDaemonHealthAndFlightRecorder(t *testing.T) {
	ports := reservePorts(t, 3)
	path := writeTopoFile(t, ports)
	tf, err := rt.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	daemons := make([]*daemon, 3)
	for i := range daemons {
		d, err := newDaemon(daemonConfig{
			id:        topo.SwitchID(i),
			topology:  tf,
			algorithm: route.SPH{},
			resync:    100 * time.Millisecond,
			admin:     "127.0.0.1:0",
			flightrec: 256,
			sample:    1, // sample every packet: the test sends only a few
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		daemons[i] = d
	}

	var out strings.Builder
	if _, err := daemons[0].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}
	if _, err := daemons[2].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		converged := true
		for _, d := range daemons {
			// Converged is a per-switch verdict: a switch that has handled
			// only its own join so far is converged on a one-member
			// connection. Wait until each one knows both members.
			h := d.node.Health()
			snap, _ := d.node.Connection(7)
			if !h.Converged || h.Conns != 1 || len(snap.Members) != 2 {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemons never reported converged health")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := daemons[0].exec("send 7 traced packet", &out); err != nil {
		t.Fatal(err)
	}
	// The frame crosses two UDP hops; wait until the far member recorded
	// its delivery rather than sleeping blind.
	deadline = time.Now().Add(10 * time.Second)
	for daemons[2].node.ForwardStats().Delivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("switch 2 never delivered the traced packet")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// REPL surface.
	out.Reset()
	if _, err := daemons[0].exec("health", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "health: converged conns=1") {
		t.Fatalf("health verb output: %q", out.String())
	}

	// HTTP surfaces: /healthz on every daemon, /flightrec on the path.
	for i, d := range daemons {
		code, body := httpGet(t, "http://"+d.adminAddr()+"/healthz")
		if code != 200 {
			t.Fatalf("daemon %d /healthz = %d", i, code)
		}
		var h rt.NodeHealth
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("daemon %d /healthz not JSON: %v", i, err)
		}
		if h.Switch != i || !h.Converged || h.Conns != 1 {
			t.Fatalf("daemon %d /healthz = %+v", i, h)
		}
	}
	var docs []*obs.FlightDoc
	for i, d := range daemons {
		code, body := httpGet(t, "http://"+d.adminAddr()+"/flightrec")
		if code != 200 {
			t.Fatalf("daemon %d /flightrec = %d", i, code)
		}
		var doc obs.FlightDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("daemon %d /flightrec not JSON: %v", i, err)
		}
		if doc.Switch != uint32(i) || doc.Written == 0 {
			t.Fatalf("daemon %d /flightrec = switch %d, %d written", i, doc.Switch, doc.Written)
		}
		docs = append(docs, &doc)
	}
	// The three dumps must join into the packet's complete 0→1→2 path.
	reports := obs.ReconstructPaths(docs)
	found := false
	for _, rep := range reports {
		if rep.Conn == 7 && rep.Src == 0 && rep.Complete && rep.Delivered > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no complete path for the traced packet among %d reports", len(reports))
	}
}

// TestAdminFlagBadAddress checks a malformed -admin address fails startup.
func TestAdminFlagBadAddress(t *testing.T) {
	ports := reservePorts(t, 2)
	path := writeTopoFile(t, ports)
	var out strings.Builder
	if err := run([]string{"-topo", path, "-id", "0", "-admin", "256.0.0.1:bad"},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("bad -admin address accepted")
	}
}
