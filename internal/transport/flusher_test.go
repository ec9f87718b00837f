package transport

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

// TestWritevCoalescesQueuedFrames pins the tentpole property of the
// flusher: frames that pile up while a vectored write is (or could be)
// in flight drain in ONE net.Buffers round, not one syscall each. The
// test parks the flusher by holding the peer's batch lock, stages eight
// complete frames, releases the lock and watches the meter: all eight
// must leave through a single writev.
func TestWritevCoalescesQueuedFrames(t *testing.T) {
	meter := new(metrics.WireMeter)
	recv, err := NewNode(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Connect(map[int]string{1: recv.Addr()}); err != nil {
		t.Fatal(err)
	}

	pc := (*n.peers.Load())[1]
	if pc == nil {
		t.Fatal("no peer connection")
	}
	const frames = 8
	msg := Message{Kind: KindData, To: Addr{Op: "B", Instance: 1}, Key: "k", Values: []string{"v"}}
	pc.mu.Lock()
	// With the lock held the flusher cannot wake from its cond.Wait, so
	// every frame staged here lands in the same queue generation.
	for i := 0; i < frames; i++ {
		buf := pc.takeBufLocked()
		buf = appendTuple(buf, &msg)
		putFrameHeader(buf, frameData)
		pc.enqueueLocked(queuedFrame{
			buf: buf, class: classData, tuples: 1,
			rawBytes: len(buf) - frameHeaderLen, reason: metrics.FlushSize,
		})
	}
	pc.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	var snap metrics.WireStats
	for {
		snap = meter.Snapshot()
		if snap.FramesSent >= frames || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if snap.FramesSent != frames {
		t.Fatalf("FramesSent = %d, want %d", snap.FramesSent, frames)
	}
	if snap.WritevCalls != 1 || snap.WritevFrames != frames {
		t.Fatalf("writev calls/frames = %d/%d, want 1/%d (queued frames must coalesce)",
			snap.WritevCalls, snap.WritevFrames, frames)
	}
	if spf := snap.SyscallsPerFlush(); spf >= 1 {
		t.Fatalf("syscalls/flush = %.3f, want < 1 with a backed-up queue", spf)
	}
}

// TestKillPeerMidFlushExactAccounting is the writev-queue settlement
// regression test: when the connection dies with frames still staged in
// the flusher's queue (and a partial batch behind them), every accepted
// tuple must end up exactly once on one side of the ledger —
// FlushedHandler's running sum keeps the tuples that reached the
// kernel, DropHandler gets the rest, and the two add back up to every
// Send that returned nil.
func TestKillPeerMidFlushExactAccounting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // hold open, never read: the writev queue backs up
		}
	}()

	var dropped, flushedNet atomic.Int64
	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{
		WriteTimeout:   200 * time.Millisecond,
		FlushBytes:     1 << 10,
		DropHandler:    func(tuples int) { dropped.Add(int64(tuples)) },
		FlushedHandler: func(_, tuples int) { flushedNet.Add(int64(tuples)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Connect(map[int]string{1: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()

	// Distinct pseudo-random payloads defeat the dictionary and the LZ
	// pass, so the queue fills with real bytes until the write deadline
	// kills the connection mid-flush.
	rng := rand.New(rand.NewSource(11))
	raw := make([]byte, 1<<10)
	sent := 0
	for i := 0; i < 1<<16; i++ {
		rng.Read(raw)
		if n.Send(1, Message{Kind: KindData, Key: "k", Values: []string{string(raw)}}) != nil {
			break
		}
		sent++
		// Idle hints ride along: some stage a frame at once, most only mark
		// the batch behind the stalled write, and the one pending when the
		// deadline fires must be settled as an unstaged batch.
		if i%3 == 0 {
			n.FlushIdle(1)
		}
	}
	if sent == 0 {
		t.Fatal("no send was ever accepted")
	}

	// The flusher settles its in-hand frames asynchronously after the
	// write error; poll until the ledger balances.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if flushedNet.Load()+dropped.Load() == int64(sent) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := flushedNet.Load() + dropped.Load(); got != int64(sent) {
		t.Fatalf("ledger off: flushed %d + dropped %d = %d, want %d accepted tuples",
			flushedNet.Load(), dropped.Load(), got, sent)
	}
	if dropped.Load() == 0 {
		t.Fatal("stalled peer lost nothing: the writev queue was never exercised")
	}
	if flushedNet.Load() < 0 {
		t.Fatalf("flushed sum went negative (%d): a frame was debited twice", flushedNet.Load())
	}
}

// gatedConn parks the first Write until release is closed, which holds
// the flusher inside a vectored write for as long as a test needs.
type gatedConn struct {
	net.Conn
	enterOnce, openOnce sync.Once
	entered             chan struct{} // closed when the first Write begins
	release             chan struct{}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
	return g.Conn.Write(p)
}

func (g *gatedConn) open() { g.openOnce.Do(func() { close(g.release) }) }

// gatedPeer connects a metered node 0 to a counting node 1 with the
// idle hint as the only way out of a batch (no timer, no size flush, no
// dictionary frames) and the connection's socket behind a gate.
func gatedPeer(t *testing.T, opts NodeOptions) (n *Node, pc *peerConn, gate *gatedConn, received *atomic.Int64) {
	t.Helper()
	received = new(atomic.Int64)
	recv, err := NewNode(1, func(m Message) {
		if m.Kind == KindData {
			received.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	opts.FlushInterval = time.Hour
	opts.Compression = CompressionOff
	n, err = NewNodeWith(0, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if err := n.Connect(map[int]string{1: recv.Addr()}); err != nil {
		t.Fatal(err)
	}
	pc = (*n.peers.Load())[1]
	pc.mu.Lock()
	gate = &gatedConn{Conn: pc.conn, entered: make(chan struct{}), release: make(chan struct{})}
	pc.conn = gate
	pc.mu.Unlock()
	t.Cleanup(gate.open) // a failing test must not leave n.Close waiting on the gate
	return n, pc, gate, received
}

// connState reads the staging counters a hint acts on.
func connState(pc *peerConn) (enqSeq, wroteSeq uint64, batchN int, idleHint bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.enqSeq, pc.wroteSeq, pc.batchN, pc.idleHint
}

func sendTuples(t *testing.T, n *Node, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := n.Send(1, Message{Kind: KindData, To: Addr{Op: "B"}, Key: "k", Values: []string{"v"}}); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushIdleIsClockedByTheSocket pins the hint's self-clocking rule:
// on an idle connection a hint stages exactly one frame at once; hints
// that arrive while a write is in flight only mark the batch, which
// keeps growing until the flusher stages it as ONE follow-up frame when
// the write returns; and a hint with nothing batched does nothing.
func TestFlushIdleIsClockedByTheSocket(t *testing.T) {
	meter := new(metrics.WireMeter)
	n, pc, gate, received := gatedPeer(t, NodeOptions{Meter: meter})

	n.FlushIdle(1) // nothing batched
	n.FlushIdle(7) // no such peer
	if enq, _, _, hint := connState(pc); enq != 0 || hint {
		t.Fatalf("hint on an empty batch staged %d frames (marked=%v), want a no-op", enq, hint)
	}

	sendTuples(t, n, 2)
	n.FlushIdle(1)
	if enq, _, batchN, hint := connState(pc); enq != 1 || batchN != 0 || hint {
		t.Fatalf("hint on an idle connection: %d frames staged, %d tuples left, marked=%v; want 1, 0, false", enq, batchN, hint)
	}
	<-gate.entered // the flusher is inside its write and stays there

	sendTuples(t, n, 1)
	n.FlushIdle(1)
	sendTuples(t, n, 2)
	n.FlushIdle(1)
	if enq, wrote, batchN, hint := connState(pc); enq != 1 || wrote != 0 || batchN != 3 || !hint {
		t.Fatalf("hints during a write: staged/written %d/%d, %d tuples batched, marked=%v; want 1/0, 3, true",
			enq, wrote, batchN, hint)
	}

	gate.open()
	// wroteSeq advances after the meter has the write, so this also
	// orders the snapshot below.
	waitFor(t, "the follow-up frame", func() bool {
		_, wrote, _, _ := connState(pc)
		return wrote == 2 && received.Load() == 5
	})
	st := meter.Snapshot()
	if st.FramesSent != 2 || st.FlushIdle != 2 || st.TuplesSent != 5 || st.WritevCalls != 2 {
		t.Fatalf("frames/idle/tuples/writes = %d/%d/%d/%d, want 2/2/5/2 (the marked batch leaves as one frame)",
			st.FramesSent, st.FlushIdle, st.TuplesSent, st.WritevCalls)
	}
	if enq, wrote, batchN, hint := connState(pc); enq != 2 || wrote != 2 || batchN != 0 || hint {
		t.Fatalf("after the drain: staged/written %d/%d, %d tuples batched, marked=%v; want 2/2, 0, false",
			enq, wrote, batchN, hint)
	}
}

// TestKillPeerBetweenHintAndWrite severs the connection with one
// idle-hinted frame in the flusher's hands and a marked batch behind
// it: neither reached the kernel, so both are debited, each once.
func TestKillPeerBetweenHintAndWrite(t *testing.T) {
	var dropped, flushedNet atomic.Int64
	n, pc, gate, received := gatedPeer(t, NodeOptions{
		DropHandler:    func(tuples int) { dropped.Add(int64(tuples)) },
		FlushedHandler: func(_, tuples int) { flushedNet.Add(int64(tuples)) },
	})
	sendTuples(t, n, 4)
	n.FlushIdle(1)
	<-gate.entered
	sendTuples(t, n, 3)
	n.FlushIdle(1)
	if _, _, batchN, hint := connState(pc); batchN != 3 || !hint {
		t.Fatalf("%d tuples batched, marked=%v; want 3 marked behind the write", batchN, hint)
	}

	n.DropPeer(1) // settles the marked batch; the staged frame is the flusher's
	gate.open()
	waitFor(t, "the flusher to settle its frame", func() bool { return dropped.Load() == 7 })
	if flushedNet.Load() != 0 || received.Load() != 0 {
		t.Fatalf("flushed %d, delivered %d; want 0 and 0 (the socket closed before the write)",
			flushedNet.Load(), received.Load())
	}
	n.FlushIdle(1) // a late hint finds no connection
	if dropped.Load() != 7 {
		t.Fatalf("dropped %d after a late hint, want 7", dropped.Load())
	}
}

// TestReconnectMidStream is the round-3 TCP drill: live traffic, a peer
// drop and a reconnect in the middle — after which the ledger must
// still balance exactly and traffic must flow on the new connection.
func TestReconnectMidStream(t *testing.T) {
	var received atomic.Int64
	recv, err := NewNode(1, func(m Message) {
		if m.Kind == KindData {
			received.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var dropped, flushedNet atomic.Int64
	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{
		DropHandler:    func(tuples int) { dropped.Add(int64(tuples)) },
		FlushedHandler: func(_, tuples int) { flushedNet.Add(int64(tuples)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Connect(map[int]string{1: recv.Addr()}); err != nil {
		t.Fatal(err)
	}

	var accepted atomic.Int64
	stop := make(chan struct{})
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Sends fail while the connection is down mid-drill; only
			// accepted tuples enter the ledger.
			if n.Send(1, Message{Kind: KindData, To: Addr{Op: "B"}, Key: "k", Values: []string{"vvvvvvvv"}}) == nil {
				accepted.Add(1)
			}
		}
	}()

	var beforeReconnect int64
	for i := 0; i < 60; i++ {
		if i == 30 {
			n.DropPeer(1)
			beforeReconnect = received.Load()
			if err := n.Connect(map[int]string{1: recv.Addr()}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-pumpDone

	// A synchronous control send drains everything staged before it on
	// the live connection.
	if err := n.Send(1, Message{Kind: KindHeartbeat, From: 0}); err != nil {
		t.Fatalf("heartbeat after reconnect: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if flushedNet.Load()+dropped.Load() == accepted.Load() || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := flushedNet.Load() + dropped.Load(); got != accepted.Load() {
		t.Fatalf("ledger off after reconnect drill: flushed %d + dropped %d = %d, want %d accepted",
			flushedNet.Load(), dropped.Load(), got, accepted.Load())
	}
	// Delivered tuples are a subset of the tuples handed to the kernel.
	if received.Load() > flushedNet.Load() {
		t.Fatalf("received %d > flushed %d: a lost frame was delivered", received.Load(), flushedNet.Load())
	}
	// The new connection must carry traffic.
	reconDeadline := time.Now().Add(5 * time.Second)
	for received.Load() <= beforeReconnect && time.Now().Before(reconDeadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() <= beforeReconnect {
		t.Fatal("no tuple was delivered after the reconnect")
	}
}
