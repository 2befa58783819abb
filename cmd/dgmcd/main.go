// Command dgmcd runs one live D-GMC switch daemon: one process per switch,
// speaking the wire protocol of internal/lsa over UDP to its neighbors.
// Every daemon in a fabric loads the same topology file, which fixes the
// graph and each switch's address:
//
//	switches 3
//	link 0 1 2ms
//	link 1 2 2ms
//	addr 0 127.0.0.1:7700
//	addr 1 127.0.0.1:7701
//	addr 2 127.0.0.1:7702
//
// Start one daemon per switch and drive membership — and live traffic —
// from stdin:
//
//	dgmcd -topo fabric.topo -id 0
//	> join 7 both
//	> show 7
//	> send 7 hello everyone
//	> stat
//	> quit
//
// Payloads other members send on a joined connection print as they arrive:
//
//	recv conn 7 from switch 2 seq 3: hello back
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgmcd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("dgmcd", flag.ContinueOnError)
	topoPath := fs.String("topo", "", "topology file shared by every daemon in the fabric (required)")
	id := fs.Int("id", -1, "this daemon's switch ID (required)")
	listen := fs.String("listen", "", "listen address override (default: this switch's addr directive)")
	algName := fs.String("algorithm", "sph", "topology algorithm: sph, kmb, spt, cbt, incremental")
	resync := fs.Duration("resync", 500*time.Millisecond, "gap-recovery timeout; 0 disables (not recommended over UDP)")
	epoch := fs.Uint64("epoch", 0, "restart epoch: bump by one on every restart of the same switch ID; a nonzero epoch cold-rejoins from the neighbors (O(n) per connection, whatever the fabric's age)")
	reopt := fs.Float64("reopt", 0, "re-optimization threshold for link recoveries (0 = off)")
	admin := fs.String("admin", "", "admin HTTP listen address serving /metrics, /spans, /state, /healthz, /flightrec, /debug/pprof (off by default)")
	flightrec := fs.Int("flightrec", 0, "flight-recorder ring size in records; 0 disables the recorder and /flightrec stays empty")
	sample := fs.Int("sample", 0, "trace every Nth data packet per source into the hop ring (requires -flightrec; 0 disables path sampling)")
	verbose := fs.Bool("v", false, "log the protocol trace to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" {
		return fmt.Errorf("-topo is required")
	}
	if *resync < 0 {
		return fmt.Errorf("negative -resync %v", *resync)
	}
	if *reopt < 0 {
		return fmt.Errorf("negative -reopt %v", *reopt)
	}
	if *flightrec < 0 || *sample < 0 {
		return fmt.Errorf("negative -flightrec/-sample")
	}
	if *sample > 0 && *flightrec == 0 {
		return fmt.Errorf("-sample needs -flightrec to hold the hop records")
	}
	alg, err := route.ByName(*algName)
	if err != nil {
		return err
	}
	tf, err := rt.LoadTopology(*topoPath)
	if err != nil {
		return err
	}
	if *id < 0 || *id >= tf.Graph.NumSwitches() {
		return fmt.Errorf("-id %d outside [0,%d)", *id, tf.Graph.NumSwitches())
	}
	cfg := daemonConfig{
		id:        topo.SwitchID(*id),
		topology:  tf,
		listen:    *listen,
		algorithm: alg,
		resync:    *resync,
		reopt:     *reopt,
		admin:     *admin,
		flightrec: *flightrec,
		sample:    *sample,
		epoch:     *epoch,
		recvW:     stdout,
	}
	if *verbose {
		cfg.traceW = os.Stderr
	}
	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(stdout, "dgmcd: switch %d on %s, %d neighbors, %d-switch fabric\n",
		d.node.ID(), d.tr.LocalAddr(), len(tf.Graph.Neighbors(d.node.ID())), tf.Graph.NumSwitches())
	if d.adminLn != nil {
		fmt.Fprintf(stdout, "dgmcd: admin on http://%s (/metrics /spans /state /healthz /flightrec /debug/pprof)\n", d.adminLn.Addr())
	}
	return d.repl(stdin, stdout)
}

type daemonConfig struct {
	id        topo.SwitchID
	topology  *rt.Topology
	listen    string // overrides the topology file's addr when non-empty
	algorithm route.Algorithm
	resync    time.Duration
	reopt     float64
	admin     string    // admin HTTP listen address; empty disables
	flightrec int       // flight-recorder ring size; 0 disables
	sample    int       // trace every Nth packet per source; 0 disables
	epoch     uint64    // restart epoch; nonzero means crash-restart rejoin
	recvW     io.Writer // delivered payloads print here; nil discards them
	traceW    io.Writer // protocol trace lines print here (-v); nil disables
}

// lineTracer prints each protocol trace entry as one line. A line is one
// Write, so entries from the node's goroutines never interleave mid-line on
// a writer, like os.Stderr, that is safe for concurrent writes. Entries
// about received LSAs are written on the node's receive goroutine, so a
// writer that blocks (a full pipe) stalls the switch's data plane too.
type lineTracer struct{ w io.Writer }

func (t lineTracer) Trace(e core.TraceEntry) {
	fmt.Fprintf(t.w, "sw%d conn%d chain%s [%v] %s\n", e.Switch, e.Conn, e.Chain, e.Kind, e.Detail)
}

// daemon is one live switch: a UDP transport plus its rt.Node, and — with
// -admin — an HTTP listener exporting the node's observability surfaces.
type daemon struct {
	cfg  daemonConfig
	tr   *rt.UDPTransport
	node *rt.Node

	registry *obs.Registry
	spans    *obs.SpanCollector
	adminLn  net.Listener
	adminSrv *http.Server
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	listen := cfg.listen
	if listen == "" {
		var ok bool
		listen, ok = cfg.topology.Addrs[cfg.id]
		if !ok {
			return nil, fmt.Errorf("topology file has no addr for switch %d (and no -listen given)", cfg.id)
		}
	}
	peers, err := cfg.topology.NeighborAddrs(cfg.id)
	if err != nil {
		return nil, err
	}
	tr, err := rt.NewUDPTransport(listen, peers)
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, tr: tr}
	nodeCfg := rt.NodeConfig{
		ID:                  cfg.id,
		Graph:               cfg.topology.Graph,
		Algorithm:           cfg.algorithm,
		ReoptimizeThreshold: cfg.reopt,
		ResyncTimeout:       cfg.resync,
		Epoch:               cfg.epoch,
		FlightRecords:       cfg.flightrec,
		SampleEvery:         cfg.sample,
	}
	if cfg.recvW != nil {
		w := cfg.recvW
		nodeCfg.DataHandler = func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			// string(payload) copies — required, since payload aliases a
			// pooled receive buffer that dies when this callback returns.
			fmt.Fprintf(w, "recv conn %d from switch %d seq %d: %s\n", conn, src, seq, string(payload))
		}
	}
	if cfg.admin != "" {
		d.registry = obs.NewRegistry()
		d.spans = obs.NewSpanCollector(0)
		nodeCfg.Registry = d.registry
	}
	switch {
	case cfg.traceW != nil && d.spans != nil:
		nodeCfg.Tracer = core.MultiTracer{lineTracer{cfg.traceW}, d.spans}
	case cfg.traceW != nil:
		nodeCfg.Tracer = lineTracer{cfg.traceW}
	case d.spans != nil:
		nodeCfg.Tracer = d.spans
	}
	node, err := rt.NewNode(nodeCfg, tr)
	if err != nil {
		tr.Close()
		return nil, err
	}
	d.node = node
	if cfg.epoch > 0 {
		// A nonzero epoch marks this process as a restarted incarnation:
		// its volatile state is gone, so ask every neighbor for everything
		// before originating anything new. The answer is O(n) per
		// connection — recent events, and one catch-up LSA per origin for
		// whatever the neighbor has trimmed — in frames that fit a
		// datagram, so it arrives on a fabric of any age.
		node.RejoinFromNeighbors()
	}
	if cfg.admin != "" {
		if err := d.startAdmin(cfg.admin); err != nil {
			node.Close()
			return nil, err
		}
	}
	return d, nil
}

// startAdmin binds the admin listener and serves the obs endpoints on it.
func (d *daemon) startAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("admin listener: %w", err)
	}
	d.adminLn = ln
	cfg := obs.AdminConfig{
		Registry: d.registry,
		Spans:    d.spans,
		State:    d.stateSnapshot,
		Health:   func() any { return d.node.Health() },
	}
	if d.node.FlightEnabled() {
		cfg.Flight = d.node.FlightDoc
	}
	d.adminSrv = &http.Server{Handler: obs.NewAdminMux(cfg)}
	go d.adminSrv.Serve(ln)
	return nil
}

// adminAddr returns the bound admin address ("" when disabled) — used by
// tests that pass ":0".
func (d *daemon) adminAddr() string {
	if d.adminLn == nil {
		return ""
	}
	return d.adminLn.Addr().String()
}

// stateJSON is the /state document: the daemon's protocol state at a glance.
type stateJSON struct {
	Switch       int             `json:"switch"`
	Addr         string          `json:"addr"`
	Metrics      core.Metrics    `json:"metrics"`
	DecodeErrors uint64          `json:"decode_errors"`
	Forward      rt.ForwardStats `json:"forward"`
	FIBEntries   int             `json:"fib_entries"`
	Connections  []connStateJSON `json:"connections"`
}

type connStateJSON struct {
	Conn     int    `json:"conn"`
	Members  []int  `json:"members"`
	R        string `json:"r"`
	E        string `json:"e"`
	C        string `json:"c"`
	Topology string `json:"topology,omitempty"`
}

// stateSnapshot builds the /state document from live node snapshots.
func (d *daemon) stateSnapshot() any {
	doc := stateJSON{
		Switch:       int(d.node.ID()),
		Addr:         d.tr.LocalAddr().String(),
		Metrics:      d.node.Metrics(),
		DecodeErrors: d.node.DecodeErrors(),
		Forward:      d.node.ForwardStats(),
		FIBEntries:   d.node.FIB().Size(),
		Connections:  []connStateJSON{},
	}
	for _, conn := range d.node.Connections() {
		snap, ok := d.node.Connection(conn)
		if !ok {
			continue
		}
		ids := snap.Members.IDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		members := make([]int, len(ids))
		for i, id := range ids {
			members[i] = int(id)
		}
		cs := connStateJSON{
			Conn:    int(conn),
			Members: members,
			R:       snap.R.String(),
			E:       snap.E.String(),
			C:       snap.C.String(),
		}
		if snap.Topology != nil {
			cs.Topology = snap.Topology.String()
		}
		doc.Connections = append(doc.Connections, cs)
	}
	return doc
}

func (d *daemon) Close() error {
	if d.adminSrv != nil {
		d.adminSrv.Close()
	}
	return d.node.Close()
}

// repl reads commands from r until EOF or quit.
func (d *daemon) repl(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		quit, err := d.exec(sc.Text(), w)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		if quit {
			return nil
		}
	}
	return sc.Err()
}

// exec runs one command line.
func (d *daemon) exec(line string, w io.Writer) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, nil
	}
	switch fields[0] {
	case "join":
		if len(fields) < 2 || len(fields) > 3 {
			return false, fmt.Errorf("usage: join <conn> [sender|receiver|both]")
		}
		conn, err := parseConn(fields[1])
		if err != nil {
			return false, err
		}
		role := mctree.SenderReceiver
		if len(fields) == 3 {
			switch fields[2] {
			case "sender":
				role = mctree.Sender
			case "receiver":
				role = mctree.Receiver
			case "both":
				role = mctree.SenderReceiver
			default:
				return false, fmt.Errorf("unknown role %q", fields[2])
			}
		}
		if err := d.node.Join(conn, role); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "ok: join conn %d as %s\n", conn, role)
	case "leave":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: leave <conn>")
		}
		conn, err := parseConn(fields[1])
		if err != nil {
			return false, err
		}
		if err := d.node.Leave(conn); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "ok: leave conn %d\n", conn)
	case "show":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: show <conn>")
		}
		conn, err := parseConn(fields[1])
		if err != nil {
			return false, err
		}
		snap, ok := d.node.Connection(conn)
		if !ok {
			fmt.Fprintf(w, "conn %d: no state\n", conn)
			return false, nil
		}
		ids := snap.Members.IDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(w, "conn %d: members=%v R=%s E=%s C=%s\n", conn, ids, snap.R, snap.E, snap.C)
		if snap.Topology != nil {
			fmt.Fprintf(w, "conn %d: topology=%s\n", conn, snap.Topology)
		}
	case "send":
		if len(fields) < 3 {
			return false, fmt.Errorf("usage: send <conn> <text...>")
		}
		conn, err := parseConn(fields[1])
		if err != nil {
			return false, err
		}
		seq, err := d.node.SendData(conn, []byte(strings.Join(fields[2:], " ")))
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "ok: sent conn %d seq %d\n", conn, seq)
	case "stat":
		s := d.node.ForwardStats()
		fmt.Fprintf(w, "data: originated=%d forwarded=%d delivered=%d drops=%d (no-entry=%d no-route=%d hop-budget=%d loop=%d) fib-entries=%d fib-compiles=%d\n",
			s.Originated, s.Forwarded, s.Delivered, s.Drops(),
			s.DropNoEntry, s.DropNoRoute, s.DropHops, s.DropLoop,
			d.node.FIB().Size(), d.node.FIBCompiles())
	case "health":
		h := d.node.Health()
		state := "converged"
		if !h.Converged {
			state = "CONVERGING"
		}
		fmt.Fprintf(w, "health: %s conns=%d gapped=%v resync-armed=%v gave-up=%v gap-depth=%d log-depth=%d log-bytes=%d catch-ups-applied=%d fib-entries=%d rx-frames/batch=%.1f rx-parks/batch=%.2f tx-frames/burst=%.1f\n",
			state, h.Conns, h.GappedConns, h.ResyncArmedConns, h.GiveUpConns, h.GapBufferDepth, h.EventLogDepth, h.EventLogBytes, h.CatchUpsApplied, h.FIBEntries,
			h.RxFramesPerBatch, h.RxParksPerBatch, h.TxFramesPerBurst)
		if h.Anomaly != "" {
			fmt.Fprintf(w, "health: last anomaly %s %dms ago (flight records written: %d)\n",
				h.Anomaly, h.AnomalyAgeMS, h.FlightWritten)
		}
	case "conns":
		fmt.Fprintf(w, "connections: %v\n", d.node.Connections())
	case "metrics":
		m := d.node.Metrics()
		fmt.Fprintf(w, "events=%d computations=%d installs=%d mc-lsas=%d withdrawn=%d resync-req=%d decode-errs=%d\n",
			m.Events, m.Computations, m.Installs, m.MCLSAs, m.Withdrawn, m.ResyncRequests, d.node.DecodeErrors())
	case "help":
		fmt.Fprint(w, "commands: join <conn> [sender|receiver|both], leave <conn>, show <conn>, send <conn> <text...>, stat, health, conns, metrics, quit\n")
	case "quit", "exit":
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	return false, nil
}

func parseConn(s string) (lsa.ConnID, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid connection ID %q", s)
	}
	return lsa.ConnID(v), nil
}
