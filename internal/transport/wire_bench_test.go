package transport

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

// benchMessage mirrors the engine's typical data tuple: two short
// values, a routing key, and synthetic padding.
func benchMessage() Message {
	return Message{
		Kind: KindData, To: Addr{Op: "B", Instance: 1},
		Values: []string{"Asia", "#golang"}, Padding: 64,
		KeyOp: "A", Key: "Asia",
	}
}

// benchWireForward measures tuples through the binary framed transport
// over real TCP loopback: encode into the per-peer batch, flush, kernel
// round trip, frame decode, batched hand-off — under the given
// compression mode. With payload > 0 every tuple carries, as a third
// value, its own payload-byte window of a seeded pseudo-random buffer:
// nothing the dictionary or LZ can remove.
func benchWireForward(b *testing.B, comp Compression, payload int) {
	var (
		received atomic.Int64
		target   atomic.Int64
	)
	done := make(chan struct{}, 1)
	meter := new(metrics.WireMeter)
	f, err := NewFabricWith(2, func(int, Message) {}, NodeOptions{
		Compression: comp,
		Meter:       meter,
		BatchHandler: func(_ int, msgs []Message) {
			if t := target.Load(); t > 0 && received.Add(int64(len(msgs))) >= t {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()

	msg := benchMessage()
	next := func(int) {}
	if payload > 0 {
		// Windows start a prime stride apart, so they realign only after
		// the buffer has wrapped many times.
		buf := make([]byte, 1<<20)
		rand.New(rand.NewSource(1)).Read(buf)
		noise := string(buf)
		msg.Values = append(msg.Values, "")
		next = func(i int) {
			off := i * 521 % (len(noise) - payload)
			msg.Values[2] = noise[off : off+payload]
		}
	}
	// Warm up the connection, batch buffers and pools, and drain fully
	// so the timed region starts clean.
	target.Store(4096)
	for i := 0; i < 4096; i++ {
		next(i)
		if err := f.Send(0, 1, msg); err != nil {
			b.Fatal(err)
		}
	}
	awaitBench(b, done)

	b.ReportAllocs()
	b.ResetTimer()
	target.Store(received.Load() + int64(b.N))
	for i := 0; i < b.N; i++ {
		next(4096 + i)
		if err := f.Send(0, 1, msg); err != nil {
			b.Fatal(err)
		}
	}
	awaitBench(b, done)
	b.StopTimer()
	if st := meter.Snapshot(); st.FramesSent > 0 {
		b.ReportMetric(st.TuplesPerFrame(), "tuples/frame")
		b.ReportMetric(st.EncodeNsPerTuple(), "encode-ns/op")
		b.ReportMetric(st.WireBytesPerTuple(), "wire-B/tuple")
		if payload > 0 {
			b.ReportMetric(1000*float64(st.LZAttempts)/float64(st.FramesSent), "lz-attempts/kframe")
		}
	}
}

// BenchmarkWireForward is the gated end-to-end number (BENCH_8.json):
// the default encoding, dictionary interning plus the opportunistic LZ
// pass. Compare with BenchmarkWireForwardRaw for the CPU cost of
// compression.
func BenchmarkWireForward(b *testing.B) { benchWireForward(b, CompressionAuto, 0) }

// BenchmarkWireForwardPayload is the regime BenchmarkWireForward, which
// resends one identical message, cannot see: every tuple carries 512
// bytes the encoder can do nothing about (the live remote-sat workload
// in miniature). ns/op is then the cost of moving the bytes, wire-B/tuple
// must sit just above the payload size, and lz-attempts/kframe is the
// share of frames the LZ pass still looks at — the encoder's wasted
// effort, which its back-off keeps near 1000/257.
func BenchmarkWireForwardPayload(b *testing.B) { benchWireForward(b, CompressionAuto, 512) }

// BenchmarkWireForwardRaw is the same pipeline with compression off:
// the PR 4 wire format, kept measurable so the Auto-vs-raw CPU trade
// stays visible.
func BenchmarkWireForwardRaw(b *testing.B) { benchWireForward(b, CompressionOff, 0) }

// BenchmarkWireForwardSkewed drives a Zipf-ish keyed stream (16 hot
// keys, the workload the dictionary exists for) under each compression
// mode and reports wire-B/tuple — the on-wire bytes-per-tuple number
// the bench gate pins so compression wins cannot silently regress.
func BenchmarkWireForwardSkewed(b *testing.B) {
	keys := [16]string{
		"Asia", "Europe", "Africa", "Oceania", "Americas", "Antarctica",
		"#golang", "#storm", "#streams", "#kafka", "#flink", "#samza",
		"hot-0", "hot-1", "hot-2", "hot-3",
	}
	for _, mode := range []struct {
		name string
		comp Compression
	}{{"off", CompressionOff}, {"dict", CompressionDict}, {"auto", CompressionAuto}} {
		b.Run(mode.name, func(b *testing.B) {
			var (
				received atomic.Int64
				target   atomic.Int64
			)
			done := make(chan struct{}, 1)
			meter := new(metrics.WireMeter)
			f, err := NewFabricWith(2, func(int, Message) {}, NodeOptions{
				Compression: mode.comp,
				Meter:       meter,
				BatchHandler: func(_ int, msgs []Message) {
					if t := target.Load(); t > 0 && received.Add(int64(len(msgs))) >= t {
						select {
						case done <- struct{}{}:
						default:
						}
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()

			msg := benchMessage()
			target.Store(4096)
			for i := 0; i < 4096; i++ {
				msg.Key = keys[i&15]
				msg.Values[0] = keys[i&15]
				if err := f.Send(0, 1, msg); err != nil {
					b.Fatal(err)
				}
			}
			awaitBench(b, done)

			b.ReportAllocs()
			b.ResetTimer()
			target.Store(received.Load() + int64(b.N))
			for i := 0; i < b.N; i++ {
				msg.Key = keys[i&15]
				msg.Values[0] = keys[i&15]
				if err := f.Send(0, 1, msg); err != nil {
					b.Fatal(err)
				}
			}
			awaitBench(b, done)
			b.StopTimer()
			if st := meter.Snapshot(); st.TuplesSent > 0 {
				b.ReportMetric(st.WireBytesPerTuple(), "wire-B/tuple")
				b.ReportMetric(st.CompressionRatio(), "ratio")
			}
		})
	}
}

// BenchmarkWireForwardTiered drives one sender across three peers — a
// rack-mate, a cluster-mate across racks, and a peer behind the
// inter-cluster link — with a PeerTier classifier installed, and
// reports the per-tier wire accounting the federation drill asserts on:
// xcluster-B/tuple is the inter-cluster wire volume amortized over all
// sent tuples, and xcluster-share the tier's tuple fraction (exactly
// 1/3 by construction — the round-robin target pattern — so a broken
// classifier shows up as a step change, not noise).
func BenchmarkWireForwardTiered(b *testing.B) {
	rackOf := []int{0, 0, 1, 2}
	clusterOf := []int{0, 0, 0, 1}
	tier := func(from, to int) int {
		switch {
		case from == to:
			return 0
		case clusterOf[from] != clusterOf[to]:
			return metrics.TierRegion
		case rackOf[from] != rackOf[to]:
			return 2
		default:
			return 1
		}
	}
	var (
		received atomic.Int64
		target   atomic.Int64
	)
	done := make(chan struct{}, 1)
	meter := new(metrics.WireMeter)
	f, err := NewFabricWith(4, func(int, Message) {}, NodeOptions{
		Meter:    meter,
		PeerTier: tier,
		BatchHandler: func(_ int, msgs []Message) {
			if t := target.Load(); t > 0 && received.Add(int64(len(msgs))) >= t {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()

	msg := benchMessage()
	target.Store(4095)
	for i := 0; i < 4095; i++ {
		if err := f.Send(0, 1+i%3, msg); err != nil {
			b.Fatal(err)
		}
	}
	awaitBench(b, done)

	b.ReportAllocs()
	b.ResetTimer()
	target.Store(received.Load() + int64(b.N))
	for i := 0; i < b.N; i++ {
		if err := f.Send(0, 1+i%3, msg); err != nil {
			b.Fatal(err)
		}
	}
	awaitBench(b, done)
	b.StopTimer()
	if st := meter.Snapshot(); st.TuplesSent > 0 {
		b.ReportMetric(st.InterClusterBytesPerTuple(), "xcluster-B/tuple")
		b.ReportMetric(
			float64(st.TierTuplesSent[metrics.TierRegion])/float64(st.TuplesSent),
			"xcluster-share")
	}
}

// BenchmarkWireWritev measures the flusher's vectored-write batching at
// a fixed queue depth: each round stages eight complete frames while
// the flusher is parked on the peer's lock, releases it, and waits for
// the vectored write to hand all eight to the kernel. One writev per
// eight frames, by construction — so the gated syscalls/flush metric
// sits at 1/8 deterministically (1.0 is the pre-writev transport's
// floor: one write syscall per frame), and ns/op prices the drain path
// itself.
func BenchmarkWireWritev(b *testing.B) {
	const depth = 8
	meter := new(metrics.WireMeter)
	recv, err := NewNode(1, func(Message) {})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	n, err := NewNodeWith(0, func(Message) {}, NodeOptions{Meter: meter})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.Connect(map[int]string{1: recv.Addr()}); err != nil {
		b.Fatal(err)
	}
	pc := (*n.peers.Load())[1]
	msg := benchMessage()

	b.ReportAllocs()
	b.ResetTimer()
	for staged := 0; staged < b.N; {
		batch := depth
		if left := b.N - staged; left < batch {
			batch = left
		}
		pc.mu.Lock()
		for i := 0; i < batch; i++ {
			buf := pc.takeBufLocked()
			buf = appendTuple(buf, &msg)
			putFrameHeader(buf, frameData)
			pc.enqueueLocked(queuedFrame{
				buf: buf, class: classData, tuples: 1,
				rawBytes: len(buf) - frameHeaderLen, reason: metrics.FlushSize,
			})
		}
		// Wait for the single vectored write that drains the batch.
		for pc.wroteSeq < pc.enqSeq && !pc.broken {
			pc.cond.Wait()
		}
		pc.mu.Unlock()
		staged += batch
	}
	b.StopTimer()
	if st := meter.Snapshot(); st.WritevCalls > 0 {
		b.ReportMetric(st.SyscallsPerFlush(), "syscalls/flush")
		b.ReportMetric(st.FramesPerWritev(), "frames/writev")
	}
}

// BenchmarkWireEncode isolates the steady-state encode path — one tuple
// appended to a warm batch buffer — which must run allocation-free
// (also pinned by TestEncodeSteadyStateZeroAlloc).
func BenchmarkWireEncode(b *testing.B) {
	msg := benchMessage()
	buf := make([]byte, frameHeaderLen, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf) >= 1<<19 {
			buf = buf[:frameHeaderLen]
		}
		buf = appendTuple(buf, &msg)
	}
}

func awaitBench(b *testing.B, done chan struct{}) {
	b.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatal("timed out waiting for deliveries")
	}
}
