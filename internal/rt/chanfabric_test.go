package rt

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// testDataFrame encodes a minimal payload frame: enough header for
// PeekFrameMeta (which is all the fabric itself reads) without needing a
// decodable data payload.
func testDataFrame(origin topo.SwitchID, seq uint64) []byte {
	return lsa.EncodeFrame(&lsa.Frame{
		Version: lsa.FrameVersion, Kind: lsa.FrameData,
		Origin: origin, From: origin, Seq: seq,
	})
}

// TestFrameQueueNoRetentionAfterPop pins the fix for the head-shift queue's
// memory retention: popping with items = items[1:] kept every popped frame
// reachable through the backing array, so handled buffers could never be
// collected (or reused) until the array happened to reallocate. The
// two-list queue's contract is that once a batch array is recycled, none of
// its former frames remain reachable through the queue — verified here with
// finalizers: every popped frame must become collectable while the queue is
// still alive and holding the recycled array.
func TestFrameQueueNoRetentionAfterPop(t *testing.T) {
	q := newFrameQueue()
	const n = 64
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		buf := make([]byte, 4096)
		runtime.SetFinalizer(&buf[0], func(*byte) { freed.Add(1) })
		if !q.push(buf) {
			t.Fatal("push failed on open queue")
		}
	}
	batch, ok := q.popAll(nil)
	if !ok || len(batch) != n {
		t.Fatalf("popAll returned %d frames (ok=%v), want %d", len(batch), ok, n)
	}
	// Recycle the batch array back into the queue (the steady-state
	// ping-pong). Its entries must be cleared on the way in.
	if !q.push(make([]byte, 16)) {
		t.Fatal("push failed on open queue")
	}
	batch2, ok := q.popAll(batch)
	if !ok || len(batch2) != 1 {
		t.Fatalf("second popAll returned %d frames (ok=%v), want 1", len(batch2), ok)
	}
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < n {
		t.Fatalf("only %d/%d popped frames became collectable: the queue retains handled frames", got, n)
	}
	runtime.KeepAlive(q)
	runtime.KeepAlive(batch2)
}

// TestFrameQueueBalancedCyclesBounded runs far past 10^5 balanced push/pop
// cycles and requires the queue machinery itself to allocate nothing in
// steady state: the batch array handed back by the consumer becomes the
// producers' next back array, so a balanced workload ping-pongs two arrays
// forever. The old queue re-copied its tail on append whenever the
// head-shifted capacity ran out, allocating (and retaining) continuously
// under exactly this load.
func TestFrameQueueBalancedCyclesBounded(t *testing.T) {
	q := newFrameQueue()
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 256)
	}
	var batch [][]byte
	cycle := func() {
		for _, b := range bufs {
			if !q.push(b) {
				t.Fatal("push failed on open queue")
			}
		}
		var ok bool
		batch, ok = q.popAll(batch)
		if !ok || len(batch) != len(bufs) {
			t.Fatalf("popAll returned %d frames (ok=%v), want %d", len(batch), ok, len(bufs))
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // reach steady state: arrays sized, pools warm
	}
	const cycles = 150_000
	if allocs := testing.AllocsPerRun(cycles, cycle); allocs > 0 {
		t.Fatalf("queue allocates %.2f times per balanced cycle in steady state, want 0", allocs)
	}
}

// TestChanFabricDrainOnClose pins the close-time accounting fix: closing a
// fabric with frames still queued must drain them — returning their buffers
// to the pool — and settle InFlight back to zero, so a partly-shut fabric
// cannot wedge a later quiescence check that waits for the in-flight count.
func TestChanFabricDrainOnClose(t *testing.T) {
	fab := NewChanFabric(3)
	p := fab.Transport(0)
	frame := testDataFrame(0, 1)
	for i := 0; i < 50; i++ {
		if err := p.Send(1, frame); err != nil {
			t.Fatal(err)
		}
		if err := p.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := fab.InFlight(); got != 100 {
		t.Fatalf("InFlight = %d with 100 frames queued, want 100", got)
	}
	if err := fab.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close with frames queued, want 0", got)
	}

	// The same with senders still sending when the queue goes away: each
	// frame is counted before its push and either drained by the fault,
	// drained by the final Close, or refused and uncounted — never two of
	// those, never none.
	faults := map[string]func(*ChanFabric) error{
		"Kill":  func(f *ChanFabric) error { return f.Kill(1) },
		"Reset": func(f *ChanFabric) error { return f.Reset(1) },
		"Close": (*ChanFabric).Close,
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			fab := NewChanFabric(2)
			raceSenders(t, fab, func() {
				if err := fault(fab); err != nil {
					t.Error(err)
				}
			})
			if err := fab.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fab.InFlight(); got != 0 {
				t.Fatalf("InFlight = %d after senders raced %s, want exactly 0", got, name)
			}
		})
		// And with a receiver that the fault finds lingering on the queue (its
		// linger made endless, so it is in it whenever it is not settling a
		// batch): it comes back with ErrClosed, having never parked, and what
		// it settled and what the fault drained still add up.
		t.Run(name+"-lingering", func(t *testing.T) {
			fab := NewChanFabric(2)
			q := fab.queues[1].Load()
			q.linger = math.MaxInt
			rx := fab.Transport(1)
			done := make(chan error, 1)
			go func() {
				var batch [][]byte
				var err error
				for {
					if batch, err = rx.RecvBatch(batch); err != nil {
						done <- err
						return
					}
					putBufs(batch)
					rx.Release(len(batch))
				}
			}()
			raceSenders(t, fab, func() {
				if err := fault(fab); err != nil {
					t.Error(err)
				}
			})
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Fatalf("lingering receiver returned %v, want ErrClosed", err)
			}
			if parks, _, _ := queueWaits(q); parks != 0 {
				t.Fatalf("receiver parked %d times inside an endless linger", parks)
			}
			if got := fab.InFlight(); got != 0 {
				t.Fatalf("InFlight = %d after %s found the receiver lingering, want exactly 0", got, name)
			}
		})
	}
}

// queueWaits reads a queue's wait counters.
func queueWaits(q *frameQueue) (parks, lingerHits, yields uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.parks, q.lingerHits, q.yields
}

// TestFrameQueueLingersBeforeParking pins the two ways an empty-queue wait
// ends, on the counters, not on time. A frame pushed while the consumer is
// lingering is returned without the consumer having parked — the linger is
// made endless, so that it cannot have run out first. With no producer the
// consumer does park, after the real linger — all of whose yields are
// counted — and the push that follows wakes it. And a queue built while
// there is one P does not linger at all.
func TestFrameQueueLingersBeforeParking(t *testing.T) {
	q := newFrameQueue()
	q.linger = math.MaxInt
	popped := make(chan int)
	pop := func(q *frameQueue) {
		batch, _ := q.popAll(nil)
		popped <- len(batch)
	}
	for round := 1; ; round++ {
		go pop(q)
		for i := 0; i < 100; i++ {
			runtime.Gosched() // let the consumer find the queue empty
		}
		if !q.push(make([]byte, 16)) {
			t.Fatal("push failed on open queue")
		}
		if n := <-popped; n != 1 {
			t.Fatalf("popAll returned %d frames, want 1", n)
		}
		parks, hits, yields := queueWaits(q)
		if parks != 0 {
			t.Fatalf("consumer parked %d times inside an endless linger", parks)
		}
		if hits > 0 {
			if yields == 0 {
				t.Fatal("a linger hit counted no yields")
			}
			break // a push landed in a linger, and was returned from it
		}
		if round == 1000 {
			t.Fatal("1000 pushes all beat the consumer to the queue: no linger was exercised")
		}
	}

	q = newFrameQueue()
	go pop(q)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if parks, _, _ := queueWaits(q); parks == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("consumer of an empty queue with no producer never parked")
		}
		runtime.Gosched()
	}
	if !q.push(make([]byte, 16)) {
		t.Fatal("push failed on open queue")
	}
	if n := <-popped; n != 1 {
		t.Fatalf("popAll after a park returned %d frames, want 1", n)
	}
	if parks, hits, yields := queueWaits(q); parks != 1 || hits != 0 || yields != uint64(q.linger) {
		t.Fatalf("after one park and its wake-up: parks=%d lingerHits=%d yields=%d, want 1, 0 and %d", parks, hits, yields, q.linger)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if got := newFrameQueue().linger; got != lingerYields {
		t.Fatalf("queue built with two Ps lingers %d yields, want %d", got, lingerYields)
	}
	runtime.GOMAXPROCS(1)
	if got := newFrameQueue().linger; got != 0 {
		t.Fatalf("queue built with one P lingers %d yields, want 0", got)
	}
}

// raceSenders runs four senders into switch 1 of fab — two frame by frame,
// two in bursts. A quarter of the way in they line up, and they and fault
// are let go together, so fault lands among sends, with most of the frames
// still to come after it; it returns when all are done. Every frame travels in a buffer the test made
// (pool-sized, so the fabric's recycling lands it in the small class), and
// on return none of them may sit in the pool twice: a buffer recycled by two
// paths would be rented out to two owners. The check can miss a duplicate
// parked in another P's private slot; it cannot report one that is not there.
func raceSenders(t *testing.T, fab *ChanFabric, fault func()) {
	t.Helper()
	// The pool must keep what it is given until it has been looked through.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const senders, perSender, burst = 4, 2048, 8 // perSender/4 is a multiple of burst
	tx := fab.Transport(0).(*chanPort)
	mine := make(map[*byte]int, senders*perSender)
	frames := make([][][]byte, senders)
	for g := range frames {
		for i := 0; i < perSender; i++ {
			buf := append(make([]byte, 0, smallBufCap), testDataFrame(0, uint64(g*perSender+i+1))...)
			mine[&buf[0]] = 0
			frames[g] = append(frames[g], buf)
		}
	}
	var wg, linedUp sync.WaitGroup
	gun := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-gun
		fault()
	}()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		linedUp.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i += burst {
				if i == perSender/4 {
					linedUp.Done()
					<-gun
				}
				// Refusals are the point: the fabric still owns the frames.
				if g%2 == 0 {
					_ = tx.SendOwnedBatch(1, frames[g][i:i+burst])
					continue
				}
				for _, buf := range frames[g][i : i+burst] {
					_ = tx.SendOwned(1, buf)
				}
			}
		}(g)
	}
	linedUp.Wait()
	close(gun)
	wg.Wait()
	if err := fab.Close(); err != nil { // recycle whatever is still queued
		t.Fatal(err)
	}
	for i := 0; i < 2*senders*perSender; i++ {
		buf := getBuf(1)[:1]
		if n, ok := mine[&buf[0]]; ok {
			if n > 0 {
				t.Fatalf("a frame buffer came out of the pool twice: it was recycled more than once")
			}
			mine[&buf[0]] = n + 1
		}
	}
}

// TestChanPortDrainOnClose covers the port-close half: a batch stashed
// between single-frame Recv calls still counts as in flight, and closing
// the port must sweep the stash as well as the queue.
func TestChanPortDrainOnClose(t *testing.T) {
	fab := NewChanFabric(2)
	tx, rx := fab.Transport(0), fab.Transport(1)
	frame := testDataFrame(0, 1)
	for i := 0; i < 20; i++ {
		if err := tx.Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	// One Recv pops the whole backlog and stashes the other 19 frames.
	buf, err := rx.Recv()
	if err != nil {
		t.Fatal(err)
	}
	putBuf(buf)
	if got := fab.InFlight(); got != 19 {
		t.Fatalf("InFlight = %d after one Recv of 20, want 19", got)
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after port Close with stashed batch, want 0", got)
	}

	// A port closing under senders and a single-frame receiver: whatever the
	// receiver had stashed, whatever was queued and whatever arrives late all
	// settle.
	fab = NewChanFabric(2)
	rx = fab.Transport(1)
	received := make(chan struct{})
	go func() {
		defer close(received)
		for {
			buf, err := rx.Recv()
			if err != nil {
				return
			}
			putBuf(buf)
		}
	}()
	raceSenders(t, fab, func() {
		if err := rx.Close(); err != nil {
			t.Error(err)
		}
	})
	<-received
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after senders raced a port Close, want exactly 0", got)
	}
}

// TestInFlightNeverUndercounts pins the in-flight count's one-sided error:
// it may read high for a moment, never low. Four producers share one port —
// two send frame by frame, two in bursts — into one batch consumer, while a
// sampler reads InFlight as fast as it can. Each read must be at least the
// number of frames that were certainly in flight throughout it: those whose
// send had returned before the read began, less those whose Release had
// begun by the time it ended. So it is never negative, and never zero while
// a frame is queued or unsettled. Counting a frame after pushing it (the
// old order) fails this: the consumer can pop and settle a frame before its
// sender has counted it.
func TestInFlightNeverUndercounts(t *testing.T) {
	const producers, perProducer, burst = 4, 120000, 8
	fab := NewChanFabric(2)
	defer fab.Close()
	tx, rx := fab.Transport(0), fab.Transport(1)
	frame := testDataFrame(0, 1)
	var sent, settling atomic.Int64

	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			queued := sent.Load()
			got := fab.InFlight()
			if floor := queued - settling.Load(); got < 0 || got < floor {
				t.Errorf("InFlight read %d with at least %d frames in flight", got, floor)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := make([][]byte, 0, burst)
			for i := 0; i < perProducer; i += burst {
				if g%2 == 0 {
					for j := 0; j < burst; j++ {
						stage = append(stage, append(getBuf(len(frame)), frame...))
					}
					if err := tx.SendOwnedBatch(1, stage); err != nil {
						t.Error(err)
						return
					}
					stage = stage[:0]
					sent.Add(burst)
					continue
				}
				for j := 0; j < burst; j++ {
					if err := tx.Send(1, frame); err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
				}
			}
		}(g)
	}
	var batch [][]byte
	for settled := 0; settled < producers*perProducer; settled += len(batch) {
		var err error
		if batch, err = rx.RecvBatch(batch); err != nil {
			t.Fatal(err)
		}
		putBufs(batch)
		settling.Add(int64(len(batch)))
		rx.Release(len(batch))
	}
	wg.Wait()
	close(stop)
	<-sampled
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after the last Release, want 0", got)
	}
}

// TestLossDeterministicUnderConcurrency pins the loss knob's determinism
// fix. The old implementation hashed a global send counter, so which frames
// died depended on how the scheduler interleaved concurrent senders — two
// identical runs produced different loss sets. The verdict is now a pure
// function of the frame's wire identity (origin, data sequence) and the
// link, so the same seeded workload must lose exactly the same frames no
// matter how many goroutines race the sends.
func TestLossDeterministicUnderConcurrency(t *testing.T) {
	const (
		frames  = 4000
		senders = 4
		prob    = 0.4
		seed    = 1234
	)
	run := func() map[uint64]bool {
		fab := NewChanFabric(2)
		fab.SetLoss(prob, seed)
		tx, rx := fab.Transport(0), fab.Transport(1)
		got := make(map[uint64]bool, frames)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				buf, err := rx.Recv()
				if err != nil {
					return
				}
				_, _, _, seq, ok := lsa.PeekFrameMeta(buf)
				if !ok {
					t.Error("received frame too short to peek")
				}
				got[seq] = true
				putBuf(buf)
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for s := g; s < frames; s += senders {
					if err := tx.Send(1, testDataFrame(0, uint64(s+1))); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		for fab.InFlight() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		fab.Close()
		<-done
		return got
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == frames {
		t.Fatalf("run delivered %d/%d frames; loss knob inert or total", len(a), frames)
	}
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d frames: loss set depends on scheduling", len(a), len(b))
	}
	for seq := range a {
		if !b[seq] {
			t.Fatalf("seq %d survived run 1 but died in run 2: loss set depends on scheduling", seq)
		}
	}
}
