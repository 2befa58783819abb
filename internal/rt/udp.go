package rt

import (
	"fmt"
	"net"
	"sync/atomic"

	"dgmc/internal/topo"
)

// maxUDPFrame bounds a received datagram. Comfortably above
// lsa.MaxFramePayload plus the frame header would be wasteful per read;
// 64 KiB covers any UDP datagram.
const maxUDPFrame = 64 << 10

// UDPTransport is a Transport over one UDP socket with a static peer table.
// It is what cmd/dgmcd uses: one daemon, one socket, peers from the shared
// topology file. UDP gives real-world semantics — datagrams can drop under
// buffer pressure — so deployments enable the protocol's resync recovery.
type UDPTransport struct {
	conn   *net.UDPConn
	peers  map[topo.SwitchID]*net.UDPAddr
	closed atomic.Bool
}

// NewUDPTransport binds listen (e.g. "127.0.0.1:7701", or ":0" for an
// ephemeral port) and resolves the peer address table.
func NewUDPTransport(listen string, peers map[topo.SwitchID]string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("rt: listen address %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("rt: bind %q: %w", listen, err)
	}
	t := &UDPTransport{conn: conn}
	if err := t.setPeers(peers); err != nil {
		conn.Close()
		return nil, err
	}
	// Flood storms are bursty; deep socket buffers keep the loss rate down
	// to what resync can mop up quickly. Best-effort: some systems clamp.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	return t, nil
}

// setPeers resolves and installs the peer address table. Not safe once the
// transport is in use.
func (t *UDPTransport) setPeers(peers map[topo.SwitchID]string) error {
	t.peers = make(map[topo.SwitchID]*net.UDPAddr, len(peers))
	for id, addr := range peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("rt: peer %d address %q: %w", id, addr, err)
		}
		t.peers[id] = ua
	}
	return nil
}

// LocalAddr returns the bound socket address (useful with ":0").
func (t *UDPTransport) LocalAddr() *net.UDPAddr {
	return t.conn.LocalAddr().(*net.UDPAddr)
}

// Send implements Transport.
func (t *UDPTransport) Send(to topo.SwitchID, data []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	addr, ok := t.peers[to]
	if !ok {
		return fmt.Errorf("rt: no address for switch %d", to)
	}
	_, err := t.conn.WriteToUDP(data, addr)
	return err
}

// SendOwnedBatch implements Transport: one datagram per frame, all of them
// tried, the first failure reported. A socket write copies into the kernel,
// so moving a buffer into a socket is writing it and recycling it. This is
// the slot a sendmmsg call can fill.
func (t *UDPTransport) SendOwnedBatch(to topo.SwitchID, bufs [][]byte) error {
	var first error
	for _, buf := range bufs {
		if err := t.Send(to, buf); err != nil && first == nil {
			first = err
		}
		putBuf(buf)
	}
	return first
}

// Recv implements Transport.
func (t *UDPTransport) Recv() ([]byte, error) {
	buf := getBuf(maxUDPFrame)[:maxUDPFrame]
	n, _, err := t.conn.ReadFromUDP(buf)
	if err != nil {
		if t.closed.Load() {
			return nil, ErrClosed
		}
		return nil, err
	}
	return buf[:n], nil
}

// RecvBatch implements Transport: a socket read yields one datagram, so the
// batch is always one frame.
func (t *UDPTransport) RecvBatch(recycle [][]byte) ([][]byte, error) {
	buf, err := t.Recv()
	if err != nil {
		return nil, err
	}
	return append(recycle[:0], buf), nil
}

// Release implements Transport. Datagrams in flight are invisible to the
// sockets, so there is nothing to settle.
func (t *UDPTransport) Release(int) {}

// RxWaits reports nothing: the receiver waits in the kernel, uncounted.
func (t *UDPTransport) RxWaits() (parks, lingerHits, yields uint64) { return 0, 0, 0 }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.closed.Store(true)
	return t.conn.Close()
}

// UDPFabric is a set of UDPTransports on loopback ephemeral ports, one per
// switch — the in-process stand-in for a real multi-daemon deployment, used
// by the UDP soak test.
type UDPFabric struct {
	trs []*UDPTransport
}

// NewUDPFabric binds n loopback sockets and cross-wires their peer tables.
func NewUDPFabric(n int) (*UDPFabric, error) {
	f := &UDPFabric{}
	addrs := make(map[topo.SwitchID]string, n)
	for i := 0; i < n; i++ {
		t, err := NewUDPTransport("127.0.0.1:0", nil)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("rt: loopback socket %d: %w", i, err)
		}
		f.trs = append(f.trs, t)
		addrs[topo.SwitchID(i)] = t.LocalAddr().String()
	}
	for _, t := range f.trs {
		if err := t.setPeers(addrs); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Transport returns switch id's socket.
func (f *UDPFabric) Transport(id topo.SwitchID) Transport { return f.trs[id] }

// Close closes every socket.
func (f *UDPFabric) Close() error {
	var first error
	for _, t := range f.trs {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
