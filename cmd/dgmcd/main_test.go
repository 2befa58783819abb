package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

// reservePorts grabs n distinct loopback UDP ports. The sockets are closed
// before the daemons bind, so a tiny reuse race exists — fine for a test.
func reservePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	conns := make([]*net.UDPConn, n)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

func writeTopoFile(t *testing.T, ports []int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "switches %d\n", len(ports))
	for i := 0; i+1 < len(ports); i++ {
		fmt.Fprintf(&b, "link %d %d 1ms\n", i, i+1)
	}
	for i, p := range ports {
		fmt.Fprintf(&b, "addr %d 127.0.0.1:%d\n", i, p)
	}
	path := filepath.Join(t.TempDir(), "fabric.topo")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestThreeDaemonFabric boots three daemons in one process over real UDP
// loopback sockets, joins an MC at the two ends of the line, and waits for
// all three switches to agree.
func TestThreeDaemonFabric(t *testing.T) {
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
			for _, d := range daemons {
				snap, ok := d.node.Connection(7)
				t.Logf("switch %d: ok=%v snap=%+v", d.node.ID(), ok, snap)
			}
			t.Fatal("daemons did not agree on conn 7 within 15s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The installed tree must span 0 and 2 — on a line, through 1.
	snap, _ := daemons[1].node.Connection(7)
	if !snap.Topology.On(0) || !snap.Topology.On(2) || !snap.Topology.On(1) {
		t.Fatalf("tree does not span the line: %s", snap.Topology)
	}

	// Command-layer sanity on a live daemon.
	out.Reset()
	if _, err := daemons[0].exec("show 7", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "members=[0 2]") {
		t.Fatalf("show output: %q", out.String())
	}
	out.Reset()
	if _, err := daemons[0].exec("metrics", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events=1") {
		t.Fatalf("metrics output: %q", out.String())
	}
	if quit, _ := daemons[0].exec("quit", &out); !quit {
		t.Fatal("quit did not quit")
	}
	if _, err := daemons[0].exec("frobnicate", &out); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := daemons[0].exec("join x", &out); err == nil {
		t.Fatal("bad connection ID accepted")
	}
}

// syncBuf is a writer safe for the delivery callback, which runs on the
// node's receive goroutine while the test reads.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonSendRecv pushes a live payload across a 3-daemon UDP fabric:
// `send` at one end must print as a `recv` line at the other, and `stat`
// must account for the frame at both ends.
func TestDaemonSendRecv(t *testing.T) {
	ports := reservePorts(t, 3)
	path := writeTopoFile(t, ports)
	tf, err := rt.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	daemons := make([]*daemon, 3)
	recvs := make([]*syncBuf, 3)
	for i := range daemons {
		recvs[i] = &syncBuf{}
		d, err := newDaemon(daemonConfig{
			id:        topo.SwitchID(i),
			topology:  tf,
			algorithm: route.SPH{},
			resync:    100 * time.Millisecond,
			recvW:     recvs[i],
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
			t.Fatal("daemons did not agree on conn 7")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Sending before joining is refused at the origin.
	if _, err := daemons[1].exec("send 7 not a member", &out); err == nil {
		t.Fatal("non-member send accepted")
	}

	out.Reset()
	if _, err := daemons[0].exec("send 7 hello fabric", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok: sent conn 7") {
		t.Fatalf("send output: %q", out.String())
	}
	want := "recv conn 7 from switch 0"
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(recvs[2].String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("switch 2 never printed %q; got %q", want, recvs[2].String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(recvs[2].String(), "hello fabric") {
		t.Fatalf("payload mangled: %q", recvs[2].String())
	}
	if got := recvs[1].String(); got != "" {
		t.Fatalf("relay switch delivered to its app: %q", got)
	}

	out.Reset()
	if _, err := daemons[0].exec("stat", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "originated=1") {
		t.Fatalf("stat output: %q", out.String())
	}
	if _, err := daemons[0].exec("send 7", &out); err == nil {
		t.Fatal("send without text accepted")
	}
}

// TestDaemonCrashRestartRejoin kills the middle daemon of a 3-switch line,
// injects an event the dead switch blocks from propagating, then boots a
// blank successor at the next restart epoch: the rejoin must rebuild the
// old state from the neighbors AND carry the missed event across the
// fabric (the restarted switch re-floods what the replay taught it).
func TestDaemonCrashRestartRejoin(t *testing.T) {
	ports := reservePorts(t, 3)
	path := writeTopoFile(t, ports)
	tf, err := rt.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	boot := func(id int, epoch uint64) *daemon {
		d, err := newDaemon(daemonConfig{
			id:        topo.SwitchID(id),
			topology:  tf,
			algorithm: route.SPH{},
			resync:    100 * time.Millisecond,
			epoch:     epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	daemons := make([]*daemon, 3)
	for i := range daemons {
		daemons[i] = boot(i, 0)
		defer func(d *daemon) { d.Close() }(daemons[i])
	}
	var out strings.Builder
	if _, err := daemons[0].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}
	if _, err := daemons[2].exec("join 7 both", &out); err != nil {
		t.Fatal(err)
	}
	waitAgree := func(conn lsa.ConnID, members int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			agreed := true
			for _, d := range daemons {
				snap, ok := d.node.Connection(conn)
				if !ok || len(snap.Members) != members ||
					!snap.R.Equal(snap.C) || !snap.R.Geq(snap.E) {
					agreed = false
					break
				}
			}
			if agreed {
				return
			}
			if time.Now().After(deadline) {
				for _, d := range daemons {
					snap, ok := d.node.Connection(conn)
					t.Logf("switch %d: ok=%v snap=%+v", d.node.ID(), ok, snap)
				}
				t.Fatalf("daemons did not agree on conn %d", conn)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitAgree(7, 2)

	// Crash the middle switch, then originate an event its outage strands
	// on one side of the line.
	daemons[1].Close()
	if _, err := daemons[0].exec("join 8 both", &out); err != nil {
		t.Fatal(err)
	}
	// The join is handled before the command returns: switch 0 already
	// lists itself on conn 8 when switch 1 comes back.
	snap, ok := daemons[0].node.Connection(8)
	if _, self := snap.Members[0]; !ok || !self || snap.R[0] != 1 {
		t.Fatalf("switch 0 right after its join of conn 8: ok=%v snap=%+v", ok, snap)
	}

	daemons[1] = boot(1, 1)
	if got := daemons[1].node.Epoch(); got != 1 {
		t.Fatalf("restarted epoch = %d, want 1", got)
	}
	// The blank successor must relearn conn 7 from its neighbors, and its
	// replayed knowledge of conn 8 must reach switch 2.
	waitAgree(7, 2)
	waitAgree(8, 1)
}

func TestRunFlagValidation(t *testing.T) {
	var out strings.Builder
	cases := [][]string{
		{},                          // missing -topo
		{"-topo", "/nonexistent"},   // unreadable file
		{"-topo", "x", "-id", "-2"}, // parse order: topo fails first, still an error
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}

	ports := reservePorts(t, 2)
	path := writeTopoFile(t, ports)
	if err := run([]string{"-topo", path, "-id", "9"}, strings.NewReader(""), &out); err == nil {
		t.Error("out-of-range -id accepted")
	}
	if err := run([]string{"-topo", path, "-id", "0", "-resync", "-1s"}, strings.NewReader(""), &out); err == nil {
		t.Error("negative -resync accepted")
	}
	if err := run([]string{"-topo", path, "-id", "0", "-algorithm", "magic"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown -algorithm accepted")
	}
	if err := run([]string{"-topo", path, "-id", "0", "-flightrec", "-1"}, strings.NewReader(""), &out); err == nil {
		t.Error("negative -flightrec accepted")
	}
	if err := run([]string{"-topo", path, "-id", "0", "-sample", "8"}, strings.NewReader(""), &out); err == nil {
		t.Error("-sample without -flightrec accepted")
	}

	// A well-formed invocation with EOF on stdin starts and exits cleanly.
	out.Reset()
	if err := run([]string{"-topo", path, "-id", "0"}, strings.NewReader("help\nconns\n"), &out); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if !strings.Contains(out.String(), "dgmcd: switch 0") {
		t.Fatalf("banner missing: %q", out.String())
	}
}
