package rt

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// closeSpyFabric records Close calls on top of a real fabric.
type closeSpyFabric struct {
	Fabric
	closes int
}

func (f *closeSpyFabric) Close() error {
	f.closes++
	return f.Fabric.Close()
}

// TestNewClusterClosesFabricOnFailure pins NewCluster's ownership promise on
// both early-exit paths: a fabric handed to a cluster that never boots is
// closed, not leaked (a UDPFabric is one socket per switch).
func TestNewClusterClosesFabricOnFailure(t *testing.T) {
	split := topo.New(2) // two switches, no link
	for name, cfg := range map[string]ClusterConfig{
		"nil graph":          {},
		"disconnected graph": {Graph: split},
	} {
		spy := &closeSpyFabric{Fabric: NewChanFabric(2)}
		if c, err := NewCluster(cfg, spy); err == nil {
			c.Close()
			t.Fatalf("%s: NewCluster succeeded", name)
		}
		if spy.closes != 1 {
			t.Errorf("%s: fabric closed %d times, want 1", name, spy.closes)
		}
	}
}

// TestTransportContract drives one send/receive/close sequence over both
// production transports through the Transport interface alone: what the
// node relies on must hold whichever fabric is underneath.
func TestTransportContract(t *testing.T) {
	fabrics := map[string]func(t *testing.T) Fabric{
		"chanPort": func(*testing.T) Fabric { return NewChanFabric(2) },
		"UDPTransport": func(t *testing.T) Fabric {
			f, err := NewUDPFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			fab := mk(t)
			defer fab.Close()
			tx, rx := fab.Transport(0), fab.Transport(1)
			owned := func(s string) []byte { return append(getBuf(len(s)), s...) }

			// Send copies: the caller's buffer stays the caller's.
			msg := []byte("copied")
			if err := tx.Send(1, msg); err != nil {
				t.Fatal(err)
			}
			copy(msg, "XXXXXX")
			batch, err := rx.RecvBatch(nil)
			if err != nil || len(batch) != 1 || string(batch[0]) != "copied" {
				t.Fatalf("RecvBatch after Send = %q, %v; want one frame %q", batch, err, "copied")
			}
			putBuf(batch[0])
			rx.Release(1)

			// A one-frame SendOwnedBatch moves: the frame arrives intact and
			// the batch slice is reused for the next burst.
			if err := tx.SendOwnedBatch(1, [][]byte{owned("moved")}); err != nil {
				t.Fatal(err)
			}
			batch, err = rx.RecvBatch(batch)
			if err != nil || len(batch) != 1 || string(batch[0]) != "moved" {
				t.Fatalf("RecvBatch after a one-frame SendOwnedBatch = %q, %v; want one frame %q", batch, err, "moved")
			}
			putBuf(batch[0])
			rx.Release(1)

			// SendOwnedBatch moves a burst: every frame arrives, in order, and
			// the slice stays the caller's. An empty burst is nothing at all.
			burst := [][]byte{owned("burst-0"), owned("burst-1"), owned("burst-2")}
			if err := tx.SendOwnedBatch(1, burst); err != nil {
				t.Fatal(err)
			}
			if err := tx.SendOwnedBatch(1, burst[:0]); err != nil {
				t.Fatalf("empty SendOwnedBatch = %v", err)
			}
			for want := 0; want < len(burst); {
				if batch, err = rx.RecvBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, got := range batch {
					if string(got) != fmt.Sprintf("burst-%d", want) {
						t.Fatalf("burst frame %d arrived as %q", want, got)
					}
					want++
					putBuf(got)
				}
				rx.Release(len(batch))
			}

			// Recv hands out single, already-settled frames.
			if err := tx.SendOwnedBatch(1, [][]byte{owned("single")}); err != nil {
				t.Fatal(err)
			}
			if got, err := rx.Recv(); err != nil || !bytes.Equal(got, []byte("single")) {
				t.Fatalf("Recv = %q, %v; want %q", got, err, "single")
			}

			// An unknown peer is an error on both sends, and SendOwnedBatch
			// has still consumed its buffers.
			if err := tx.Send(7, msg); err == nil {
				t.Fatal("Send to unknown peer accepted")
			}
			if err := tx.SendOwnedBatch(7, [][]byte{owned("nowhere")}); err == nil {
				t.Fatal("one-frame SendOwnedBatch to unknown peer accepted")
			}
			if err := tx.SendOwnedBatch(7, [][]byte{owned("nowhere"), owned("either")}); err == nil {
				t.Fatal("SendOwnedBatch to unknown peer accepted")
			}

			// Close unblocks a parked receiver and fails everything after.
			parked := make(chan error, 1)
			go func() {
				_, err := rx.RecvBatch(nil)
				parked <- err
			}()
			time.Sleep(10 * time.Millisecond) // let it park; either order must work
			if err := rx.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-parked:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("parked RecvBatch = %v, want ErrClosed", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not unblock RecvBatch")
			}
			if _, err := rx.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close = %v, want ErrClosed", err)
			}
			if cf, ok := fab.(*ChanFabric); ok {
				// The in-process fabric can tell a closed destination: the
				// burst is refused whole, recycled, and never counted.
				if err := tx.SendOwnedBatch(1, [][]byte{owned("late-0"), owned("late-1")}); !errors.Is(err, ErrClosed) {
					t.Fatalf("SendOwnedBatch to a closed port = %v, want ErrClosed", err)
				}
				if got := cf.InFlight(); got != 0 {
					t.Fatalf("InFlight = %d after a refused burst, want 0", got)
				}
			}
			if err := tx.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Send(1, msg); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close = %v, want ErrClosed", err)
			}
			if err := tx.SendOwnedBatch(1, [][]byte{owned("late")}); !errors.Is(err, ErrClosed) {
				t.Fatalf("SendOwnedBatch after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestSendOwnedBatchFabricFaults covers the outcomes only the in-process
// fabric has: a burst across a partition vanishes whole behind a nil error,
// and under the loss knob a burst loses exactly the frames that the same
// frames sent one by one lose under the same seed.
func TestSendOwnedBatchFabricFaults(t *testing.T) {
	fab := NewChanFabric(2)
	defer fab.Close()
	tx := fab.Transport(0)
	fab.SetPartition([][]topo.SwitchID{{0}, {1}})
	burst := [][]byte{testDataFrame(0, 1), testDataFrame(0, 2)}
	if err := tx.SendOwnedBatch(1, burst); err != nil {
		t.Fatalf("SendOwnedBatch across a partition = %v, want silent loss", err)
	}
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after a partitioned burst, want 0", got)
	}

	const frames, seed = 512, 99
	survivors := func(send func(tx Transport, frame []byte), flush func(tx Transport)) (seqs []uint64, lost uint64) {
		fab := NewChanFabric(2)
		defer fab.Close()
		fab.SetLoss(0.3, seed)
		tx, rx := fab.Transport(0), fab.Transport(1)
		for s := uint64(1); s <= frames; s++ {
			send(tx, testDataFrame(0, s))
		}
		flush(tx)
		for fab.InFlight() > 0 {
			buf, err := rx.Recv()
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, seq, _ := lsa.PeekFrameMeta(buf)
			seqs = append(seqs, seq)
		}
		return seqs, fab.Lost()
	}
	single, lostSingle := survivors(func(tx Transport, frame []byte) {
		if err := tx.SendOwnedBatch(1, [][]byte{frame}); err != nil {
			t.Fatal(err)
		}
	}, func(Transport) {})
	var stage [][]byte
	flush := func(tx Transport) {
		if err := tx.SendOwnedBatch(1, stage); err != nil {
			t.Fatal(err)
		}
		stage = stage[:0]
	}
	batched, lostBatched := survivors(func(tx Transport, frame []byte) {
		if stage = append(stage, frame); len(stage) == 7 {
			flush(tx)
		}
	}, flush)
	if lostSingle == 0 || lostSingle == frames {
		t.Fatalf("loss knob dropped %d of %d frames; inert or total", lostSingle, frames)
	}
	if lostBatched != lostSingle || !slices.Equal(batched, single) {
		t.Fatalf("bursts lost %d frames and delivered %d, single sends lost %d and delivered %d: verdicts differ",
			lostBatched, len(batched), lostSingle, len(single))
	}
}
