package rt

import (
	"crypto/sha256"
	"fmt"

	"dgmc/internal/core"
	"dgmc/internal/topo"
)

// NodeSnapshot is a point-in-time capture of one switch's protocol state —
// every connection's stamps, member list, event log, installed topology,
// and resync posture — detached from the runtime that produced it. It is
// what a crash–restart with durable state restores from
// (NodeConfig.Restore); a restart without one rebuilds from neighbors
// instead (Node.RejoinFromNeighbors).
//
// The snapshot carries a checksum over the machine's canonical state
// encoding (core.Machine.AppendState), taken at capture time and verified
// at restore time, so state corrupted between crash and restart is refused
// rather than replayed into the network.
type NodeSnapshot struct {
	id      topo.SwitchID
	epoch   uint64
	machine *core.Machine
	sum     [sha256.Size]byte
}

// Snapshot captures the node's current protocol state. The capture is
// atomic with respect to protocol processing (it holds the machine lock)
// and independent of the node afterwards: the node may process further
// traffic, crash, or be closed without affecting the snapshot.
func (n *Node) Snapshot() *NodeSnapshot {
	n.mu.Lock()
	m := n.machine.Clone()
	n.mu.Unlock()
	return &NodeSnapshot{
		id:      n.id,
		epoch:   n.epoch,
		machine: m,
		sum:     sha256.Sum256(m.AppendState(nil)),
	}
}

// ID returns the switch the snapshot was taken from.
func (s *NodeSnapshot) ID() topo.SwitchID { return s.id }

// Epoch returns the restart epoch of the incarnation that was captured.
func (s *NodeSnapshot) Epoch() uint64 { return s.epoch }

// verify recomputes the checksum and compares it with the one taken at
// capture time.
func (s *NodeSnapshot) verify() error {
	if s.machine == nil {
		return fmt.Errorf("rt: empty snapshot for switch %d", s.id)
	}
	if got := sha256.Sum256(s.machine.AppendState(nil)); got != s.sum {
		return fmt.Errorf("rt: snapshot for switch %d failed checksum verification", s.id)
	}
	return nil
}
