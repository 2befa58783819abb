package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// TestBlastSmoke drives the data plane with closed-loop senders at
// audited scale on both live fabrics: every accepted send is ledgered with
// its expected receiver set, so the exactly-once contract (no duplicates,
// no strays) is checked under concurrent batched senders — and the data
// plane's own ForwardStats counters must agree with the ledger's
// independent tally. Small enough to run race-enabled in CI as a blocking
// gate.
func TestBlastSmoke(t *testing.T) {
	t.Run("ChanFabric", func(t *testing.T) {
		fab := NewChanFabric(9)
		blastSmoke(t, fab, fab.InFlight, 1.0)
	})
	t.Run("UDPFabric", func(t *testing.T) {
		fab, err := NewUDPFabric(9)
		if err != nil {
			t.Fatal(err)
		}
		// Datagram sockets have no in-flight count and may shed frames
		// under burst, so the smoke settles on node quiescence and gates a
		// near-lossless ratio instead of exactness; the exactly-once and
		// counter-agreement assertions are unconditional.
		blastSmoke(t, fab, nil, 0.9)
	})
}

func blastSmoke(t *testing.T, fab Fabric, inFlight func() int64, minRatio float64) {
	const rows, cols = 3, 3
	conn := lsa.ConnID(1)
	g, err := topo.Grid(rows, cols, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	led := workload.NewLedger()
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		DataHandler: func(at topo.SwitchID, _ lsa.ConnID, src topo.SwitchID, seq uint64, _ []byte) {
			led.RecordRecv(at, workload.PacketID{Src: src, Seq: seq})
		},
	}, fab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	members := []topo.SwitchID{0, 4, 8}
	for _, sw := range members {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	sent, refused := closedLoop(c, led, conn, members, members, 2, 16, 900, inFlight)
	if err := c.Settle(50*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	if refused != 0 {
		t.Fatalf("converged cluster refused %d sends", refused)
	}
	if sent != 900 {
		t.Fatalf("accepted %d sends, want the full 900 budget", sent)
	}
	sum := led.Summary()
	t.Logf("closed-loop smoke: %+v ratio=%.4f", sum, sum.Ratio())
	if sum.Dups != 0 || sum.Strays != 0 {
		t.Fatalf("exactly-once violated under load: %d dups, %d strays", sum.Dups, sum.Strays)
	}
	if r := sum.Ratio(); r < minRatio {
		t.Fatalf("delivery ratio %.4f < %.2f under load", r, minRatio)
	}
	// With dups and strays at zero, the ledger's delivered count is exactly
	// the number of delivery events the data plane performed.
	stats := c.ForwardStats()
	if stats.Delivered != uint64(sum.Delivered) {
		t.Fatalf("ForwardStats.Delivered = %d but ledger recorded %d deliveries", stats.Delivered, sum.Delivered)
	}
	if stats.Originated != sent {
		t.Fatalf("ForwardStats.Originated = %d but closedLoop had %d sends accepted", stats.Originated, sent)
	}
}

// closedLoop originates a budget of packets payloads on conn from sources:
// perSource goroutines per source claim batches of up to batch packets
// from the shared budget and originate each with one
// Cluster.SendDataBatch. Every accepted packet is recorded in led as owed
// to the other members, every refused one as refused. The loop is closed
// on the fabric: before it claims a batch, a sender yields while inFlight
// (when set) reads above maxInFlight, so queues stay bounded however fast
// senders run. It returns the accepted and refused counts once every
// sender is done.
func closedLoop(c *Cluster, led *workload.Ledger, conn lsa.ConnID, members, sources []topo.SwitchID,
	perSource, batch, packets int, inFlight func() int64) (sent, refused uint64) {
	const maxInFlight = 256
	payload := make([]byte, 32)
	var budget atomic.Int64
	budget.Store(int64(packets))
	var nSent, nRefused atomic.Uint64
	var wg sync.WaitGroup
	for _, src := range sources {
		var want []topo.SwitchID
		for _, m := range members {
			if m != src {
				want = append(want, m)
			}
		}
		for range perSource {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for inFlight != nil && inFlight() > maxInFlight {
						runtime.Gosched()
					}
					n := batch
					if left := budget.Add(-int64(batch)); left < 0 {
						n += int(left) // the budget's last, partial claim
						if n <= 0 {
							return
						}
					}
					// A send error refuses the rest of the batch: it is
					// counted, not fatal, as in workload.Pump.
					first, got, _ := c.SendDataBatch(src, conn, payload, n)
					for i := range got {
						led.RecordSend(workload.PacketID{Src: src, Seq: first + uint64(i)}, want)
					}
					for range n - got {
						led.RecordRefused()
					}
					nSent.Add(uint64(got))
					nRefused.Add(uint64(n - got))
				}
			}()
		}
	}
	wg.Wait()
	return nSent.Load(), nRefused.Load()
}
