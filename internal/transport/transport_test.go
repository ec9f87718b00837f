package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(0, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, func(int, Message) {}); err == nil {
		t.Fatal("0 servers accepted")
	}
}

func collectFabric(t *testing.T, servers int) (*Fabric, func() []Message, *sync.WaitGroup) {
	t.Helper()
	var (
		mu  sync.Mutex
		got []Message
		wg  sync.WaitGroup
	)
	f, err := NewFabric(servers, func(server int, msg Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	snapshot := func() []Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]Message(nil), got...)
	}
	return f, snapshot, &wg
}

func TestFabricDeliversAllKinds(t *testing.T) {
	f, snapshot, wg := collectFabric(t, 2)

	wg.Add(3)
	msgs := []Message{
		{Kind: KindData, To: Addr{Op: "B", Instance: 1},
			Values: []string{"Asia", "#go"}, Padding: 64, KeyOp: "A", Key: "Asia"},
		{Kind: KindMigrate, To: Addr{Op: "B", Instance: 0},
			MigKey: "k", MigData: []byte{1, 2, 3}},
		{Kind: KindPropagate, To: Addr{Op: "B", Instance: 1}},
	}
	for _, m := range msgs {
		if err := f.Send(0, 1, m); err != nil {
			t.Fatal(err)
		}
	}
	waitGroupWithin(t, wg, 5*time.Second)

	got := snapshot()
	if len(got) != 3 {
		t.Fatalf("received %d messages", len(got))
	}
	// FIFO per pair: order preserved.
	if got[0].Kind != KindData || got[1].Kind != KindMigrate || got[2].Kind != KindPropagate {
		t.Fatalf("order = %v %v %v", got[0].Kind, got[1].Kind, got[2].Kind)
	}
	if got[0].Values[0] != "Asia" || got[0].Padding != 64 || got[0].KeyOp != "A" {
		t.Fatalf("data payload = %+v", got[0])
	}
	if string(got[1].MigData) != "\x01\x02\x03" || got[1].MigKey != "k" {
		t.Fatalf("migrate payload = %+v", got[1])
	}
}

func TestFabricFIFOUnderLoad(t *testing.T) {
	const n = 5000
	var (
		mu   sync.Mutex
		keys []string
		wg   sync.WaitGroup
	)
	f, err := NewFabric(2, func(_ int, msg Message) {
		mu.Lock()
		keys = append(keys, msg.Key)
		mu.Unlock()
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, Message{Kind: KindData, Key: fmt.Sprintf("%08d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitGroupWithin(t, &wg, 10*time.Second)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("FIFO violated at %d: %s before %s", i, keys[i-1], keys[i])
		}
	}
}

func TestFabricConcurrentSenders(t *testing.T) {
	const senders, per = 4, 500
	var wg sync.WaitGroup
	var count sync.WaitGroup
	count.Add(senders * per)
	f, err := NewFabric(3, func(int, Message) { count.Done() })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f.Send(s%3, (s+1)%3, Message{Kind: KindData, Key: "k"}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitGroupWithin(t, &count, 10*time.Second)
}

func TestLargePayload(t *testing.T) {
	var wg sync.WaitGroup
	var got Message
	f, err := NewFabric(2, func(_ int, msg Message) {
		got = msg
		wg.Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wg.Add(1)
	big := []byte(strings.Repeat("x", 1<<20))
	if err := f.Send(1, 0, Message{Kind: KindMigrate, MigKey: "big", MigData: big}); err != nil {
		t.Fatal(err)
	}
	waitGroupWithin(t, &wg, 5*time.Second)
	if len(got.MigData) != 1<<20 {
		t.Fatalf("payload size = %d", len(got.MigData))
	}
}

func TestSendErrors(t *testing.T) {
	f, _, _ := collectFabric(t, 2)
	if err := f.Send(-1, 0, Message{}); err == nil {
		t.Error("invalid sender accepted")
	}
	if err := f.Send(0, 9, Message{}); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestCloseIdempotentAndSendAfterClose(t *testing.T) {
	f, _, _ := collectFabric(t, 2)
	f.Close()
	f.Close() // must not panic or hang
	if err := f.Send(0, 1, Message{Kind: KindData}); err == nil {
		t.Error("send after close should fail")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	f, snapshot, wg := collectFabric(t, 2)
	wg.Add(1)
	if err := f.Send(1, 0, Message{Kind: KindHeartbeat, From: 1}); err != nil {
		t.Fatal(err)
	}
	waitGroupWithin(t, wg, 5*time.Second)
	got := snapshot()
	if len(got) != 1 || got[0].Kind != KindHeartbeat || got[0].From != 1 {
		t.Fatalf("heartbeat = %+v", got)
	}
}

// TestSendWriteDeadline verifies a sender facing a stalled peer errors
// out within the write deadline instead of blocking forever, and that
// subsequent sends to the dropped peer fail fast.
func TestSendWriteDeadline(t *testing.T) {
	// A raw listener that accepts but never reads, so the sender's
	// kernel buffer eventually fills.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()

	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{WriteTimeout: 200 * time.Millisecond})
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

	// Push large payloads until the socket buffers fill and the
	// deadline fires. Bound the loop so a broken implementation fails
	// the test instead of hanging it.
	payload := bytes.Repeat([]byte{0xab}, 1<<20)
	var sendErr error
	for i := 0; i < 64; i++ {
		if sendErr = n.Send(1, Message{Kind: KindMigrate, MigKey: "k", MigData: payload}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("Send never surfaced an error against a stalled peer")
	}
	// The stream is truncated mid-message; the peer must be dropped so
	// the next send fails immediately rather than writing garbage.
	start := time.Now()
	if err := n.Send(1, Message{Kind: KindData}); err == nil {
		t.Fatal("send after deadline drop succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("send after drop took %v, want fast failure", elapsed)
	}
}

// TestConnectRetriesSlowListener verifies Connect succeeds when the
// peer's listener comes up only after the first dial attempts fail.
func TestConnectRetriesSlowListener(t *testing.T) {
	// Reserve a port, then free it so the first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{
		DialTimeout: time.Second,
		DialRetries: 50,
		DialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Bring the listener up late, on the reserved address.
	go func() {
		time.Sleep(100 * time.Millisecond)
		late, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		conn, err := late.Accept()
		if err == nil {
			defer conn.Close()
		}
		late.Close()
	}()

	if err := n.Connect(map[int]string{1: addr}); err != nil {
		t.Fatalf("Connect did not survive a slow listener: %v", err)
	}
}

// TestConnectBoundedRetries verifies Connect gives up after its retry
// budget when the peer never appears.
func TestConnectBoundedRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody will ever listen here

	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{
		DialTimeout: 100 * time.Millisecond,
		DialRetries: 2,
		DialBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	start := time.Now()
	if err := n.Connect(map[int]string{1: addr}); err == nil {
		t.Fatal("Connect succeeded with no listener")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Connect took %v, retries not bounded", elapsed)
	}
}

// TestStalledPeerDropsBatch is the stalled-mid-frame case: a peer that
// accepts the connection but never reads. The sender's batched tuples
// must be discarded with the connection (reported via DropHandler, so
// in-flight accounting can settle), the next send must fail fast, and
// the stall must never block a sender forever.
func TestStalledPeerDropsBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // hold it open, never read
		}
	}()

	var dropped atomic.Int64
	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{
		WriteTimeout: 200 * time.Millisecond,
		FlushBytes:   1 << 10,
		DropHandler:  func(tuples int) { dropped.Add(int64(tuples)) },
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

	// Pump data until the kernel buffers fill and a flush hits the write
	// deadline. Bound the loop so a broken implementation fails instead
	// of hanging. Each tuple carries a distinct pseudo-random payload so
	// neither the dictionary nor the LZ pass can shrink the stream — the
	// stall must come from real bytes hitting a full socket.
	rng := rand.New(rand.NewSource(7))
	raw := make([]byte, 1<<10)
	var sendErr error
	for i := 0; i < 1<<16; i++ {
		rng.Read(raw)
		if sendErr = n.Send(1, Message{Kind: KindData, Key: "k", Values: []string{string(raw)}}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("Send never surfaced an error against a stalled peer")
	}
	if dropped.Load() == 0 {
		t.Fatal("DropHandler never reported the discarded batch")
	}
	// The connection is gone: the next send must fail immediately.
	start := time.Now()
	if err := n.Send(1, Message{Kind: KindData}); err == nil {
		t.Fatal("send after deadline drop succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("send after drop took %v, want fast failure", elapsed)
	}
}

// TestTornFrameDeliversNothing writes a complete frame followed by a
// truncated one straight into a node's listener: the complete frame
// must be delivered, the torn one must drop the connection without the
// handler ever seeing a partial tuple.
func TestTornFrameDeliversNothing(t *testing.T) {
	var (
		mu  sync.Mutex
		got []Message
	)
	n, err := NewNode(0, func(msg Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	whole := Message{Kind: KindData, To: Addr{Op: "B", Instance: 1}, Key: "whole", Values: []string{"v"}}
	torn := Message{Kind: KindData, To: Addr{Op: "B", Instance: 2}, Key: "torn", Values: []string{"vvvvvvvv"}}
	frame := make([]byte, frameHeaderLen)
	frame = appendTuple(frame, &whole)
	putFrameHeader(frame, frameData)
	tornFrame := make([]byte, frameHeaderLen)
	tornFrame = appendTuple(tornFrame, &torn)
	putFrameHeader(tornFrame, frameData)
	if _, err := conn.Write(append(frame, tornFrame[:len(tornFrame)-4]...)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // tear the stream mid-frame

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(got) >= 1
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Key != "whole" {
		t.Fatalf("delivered %+v, want exactly the complete frame's tuple", got)
	}
}

// TestBatchHandlerReceivesFrames verifies the receive-side batching
// contract: tuples that crossed in one frame arrive in one BatchHandler
// call, in order, and size-triggered flushes happen without waiting for
// the timer.
func TestBatchHandlerReceivesFrames(t *testing.T) {
	const tuples = 100
	var (
		mu     sync.Mutex
		frames [][]Message
		total  int
	)
	done := make(chan struct{})
	opts := NodeOptions{
		FlushBytes:    1 << 20,
		FlushInterval: 5 * time.Millisecond,
		BatchHandler: func(_ int, msgs []Message) {
			mu.Lock()
			frames = append(frames, append([]Message(nil), msgs...))
			total += len(msgs)
			if total == tuples {
				close(done)
			}
			mu.Unlock()
		},
	}
	f, err := NewFabricWith(2, func(int, Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < tuples; i++ {
		if err := f.Send(0, 1, Message{Kind: KindData, To: Addr{Op: "B"}, Key: fmt.Sprintf("%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for batched delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) >= tuples {
		t.Fatalf("got %d frames for %d tuples; batching is not happening", len(frames), tuples)
	}
	var keys []string
	for _, fr := range frames {
		for _, m := range fr {
			keys = append(keys, m.Key)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("FIFO violated across frames at %d: %s before %s", i, keys[i-1], keys[i])
		}
	}
}

// TestWireMeterCounts checks that the meter sees frames on both sides
// and attributes flush reasons.
func TestWireMeterCounts(t *testing.T) {
	meter := new(metrics.WireMeter)
	var wg sync.WaitGroup
	f, err := NewFabricWith(2, func(int, Message) { wg.Done() }, NodeOptions{
		// Size and timer out of reach: only the hint and the control send
		// flush.
		FlushBytes:    1 << 20,
		FlushInterval: time.Hour,
		Meter:         meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wg.Add(4)
	for i := 0; i < 3; i++ {
		if err := f.Send(0, 1, Message{Kind: KindData, Key: "k"}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			f.FlushIdle(0, 1) // two tuples leave on the hint, the third on the control send
		}
	}
	// A control send returns once its frame — and so every frame before
	// it — has been written and metered.
	if err := f.Send(0, 1, Message{Kind: KindHeartbeat, From: 0}); err != nil {
		t.Fatal(err)
	}
	waitGroupWithin(t, &wg, 5*time.Second)

	st := meter.Snapshot()
	if st.TuplesSent != 3 || st.TuplesReceived != 3 {
		t.Fatalf("tuples sent/received = %d/%d, want 3/3", st.TuplesSent, st.TuplesReceived)
	}
	if st.FlushIdle != 1 || st.FlushControl != 1 ||
		st.FramesSent != st.FlushSize+st.FlushTimer+st.FlushControl+st.FlushClose+st.FlushIdle {
		t.Fatalf("flush reasons %d+%d+%d+%d+%d (want 1 control, 1 idle) do not sum to frames %d",
			st.FlushSize, st.FlushTimer, st.FlushControl, st.FlushClose, st.FlushIdle, st.FramesSent)
	}
	if st.ControlSent != 1 || st.ControlReceived != 1 {
		t.Fatalf("control sent/received = %d/%d, want 1/1", st.ControlSent, st.ControlReceived)
	}
	if st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatal("byte counters not recorded")
	}
}

func waitGroupWithin(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out waiting for deliveries")
	}
}
