package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

// --- LZ codec ---

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 8<<10)
	rng.Read(random)
	repetitive := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 256)
	overlap := bytes.Repeat([]byte{0xAB}, 1000) // offset-1 self-overlapping matches
	mixed := append(append([]byte{}, repetitive...), random...)
	big := bytes.Repeat(random[:100], 1<<10) // ~100KiB, offsets past lzMaxOffset
	// Inputs that run the matcher at every step width: a long miss run
	// (the step grows to ~90 and the input ends mid-stride), text after
	// such a run (the first match must bring the step back to 1), the
	// payload-stream shape (a short repeated header between 512-byte
	// stretches of noise), noise bursts inside text, and one run longer
	// than the offset window.
	longRandom := make([]byte, 256<<10)
	rng.Read(longRandom)
	randomThenText := append(append([]byte{}, longRandom[:32<<10]...), repetitive...)
	var payloads, bursts []byte
	for i := 0; i < 120; i++ {
		payloads = append(payloads, "\x03\x02\x00\x05\x01\x00\x04\x01\x00\x80\x08"...)
		payloads = append(payloads, longRandom[i*512:(i+1)*512]...)
		bursts = append(bursts, repetitive[:300+i]...)
		bursts = append(bursts, longRandom[i*100:(i+1)*100]...)
	}
	longRun := make([]byte, 100<<10)

	cases := map[string][]byte{
		"empty":            {},
		"one-byte":         {7},
		"short":            []byte("abc"),
		"repetitive":       repetitive,
		"random":           random,
		"overlap":          overlap,
		"mixed":            mixed,
		"big":              big,
		"long-random":      longRandom,
		"random-then-text": randomThenText,
		"payload-tuples":   payloads,
		"text-with-bursts": bursts,
		"long-run":         longRun,
	}
	// Seeded compositions of the same ingredients — noise, runs, copies of
	// what came before — at lengths from nothing up, so every way of
	// ending (mid-stride, mid-match, under four bytes left) occurs.
	for i := 0; i < 300; i++ {
		var src []byte
		for segs := rng.Intn(6); segs > 0; segs-- {
			n := rng.Intn(1 << uint(rng.Intn(13)))
			switch rng.Intn(3) {
			case 0:
				src = append(src, longRandom[:n]...)
			case 1:
				src = append(src, bytes.Repeat([]byte{byte(rng.Intn(4))}, n)...)
			case 2:
				if len(src) > 0 {
					from := rng.Intn(len(src))
					src = append(src, src[from:min(len(src), from+n)]...)
				}
			}
		}
		cases[fmt.Sprintf("composed-%d", i)] = src
	}
	var table [1 << lzHashBits]int32
	for name, src := range cases {
		comp := lzAppendCompress(nil, src, &table)
		got, err := lzAppendDecompress(nil, comp, len(src))
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", name, len(src), len(got))
		}
	}
	// Sanity: the codec actually compresses what it exists for, also when
	// it has just skimmed over 32KiB of noise, and skimming costs noise
	// next to nothing in size.
	if comp := lzAppendCompress(nil, repetitive, &table); len(comp) >= len(repetitive)/4 {
		t.Fatalf("repetitive text compressed to %d of %d bytes", len(comp), len(repetitive))
	}
	if comp := lzAppendCompress(nil, randomThenText, &table); len(comp) >= 32<<10+len(repetitive)/4 {
		t.Fatalf("text after 32KiB of noise: %d of %d bytes", len(comp), len(randomThenText))
	}
	if comp := lzAppendCompress(nil, longRandom, &table); len(comp) > len(longRandom)+16 {
		t.Fatalf("noise grew from %d to %d bytes", len(longRandom), len(comp))
	}
}

// TestLZDecompressBounded hammers the decoder with truncated and
// mutated streams: it must never panic and never produce more than the
// declared limit, whatever the bytes say.
func TestLZDecompressBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := append(bytes.Repeat([]byte("hot key hot key "), 200), make([]byte, 512)...)
	rng.Read(src[len(src)-512:])
	var table [1 << lzHashBits]int32
	comp := lzAppendCompress(nil, src, &table)

	for cut := 0; cut < len(comp); cut++ {
		if out, err := lzAppendDecompress(nil, comp[:cut], len(src)); err == nil && len(out) > len(src) {
			t.Fatalf("truncation at %d produced %d bytes, limit %d", cut, len(out), len(src))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte{}, comp...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		if out, err := lzAppendDecompress(nil, mut, len(src)); err == nil && len(out) > len(src) {
			t.Fatalf("mutation trial %d produced %d bytes, limit %d", trial, len(out), len(src))
		}
	}
}

// --- dictionary ---

func TestDictInternPromotesOnSecondSighting(t *testing.T) {
	d := newSendDict()
	if _, ok := d.intern("hot"); ok {
		t.Fatal("first sighting interned")
	}
	id, ok := d.intern("hot")
	if !ok || id != 0 {
		t.Fatalf("second sighting: id=%d ok=%v, want 0 true", id, ok)
	}
	if d.pendingEntries != 1 {
		t.Fatalf("pendingEntries = %d, want 1", d.pendingEntries)
	}
	if id, ok := d.intern("hot"); !ok || id != 0 {
		t.Fatalf("third sighting: id=%d ok=%v, want 0 true", id, ok)
	}
	// Empty strings and strings longer than a key never intern, however
	// often they recur: they ride inline without touching the maps.
	long := strings.Repeat("x", maxKeyString+1)
	for i := 0; i < 3; i++ {
		if _, ok := d.intern(""); ok {
			t.Fatal("empty string interned")
		}
		if _, ok := d.intern(long); ok {
			t.Fatal("string longer than a key interned")
		}
	}
	if len(d.candidates) != 0 {
		t.Fatalf("%d candidates parked by strings that can never intern", len(d.candidates))
	}
	// Exactly maxKeyString is the longest string the sender interns.
	edge := strings.Repeat("y", maxKeyString)
	d.intern(edge)
	if id, ok := d.intern(edge); !ok || id != 1 {
		t.Fatalf("maxKeyString entry: id=%d ok=%v, want 1 true", id, ok)
	}

	var r recvDict
	n, err := r.apply(d.pending)
	if err != nil || n != 2 {
		t.Fatalf("apply: entries=%d err=%v, want 2 nil", n, err)
	}
	if r.entries[0] != "hot" || r.entries[1] != edge {
		t.Fatalf("receiver entries = %q", r.entries)
	}
}

func TestRecvDictRejectsBadAnnouncements(t *testing.T) {
	good := func() []byte {
		d := newSendDict()
		d.intern("a")
		d.intern("a")
		return append([]byte{}, d.pending...)
	}()
	cases := map[string][]byte{
		"out-of-order id": {2, 1, 'a'},           // id 2 when 0 expected
		"empty string":    {0, 0},                // zero-length entry
		"truncated":       good[:len(good)-1],    // body shorter than declared
		"duplicate id":    append(good, good...), // second announce reuses id 0
	}
	for name, p := range cases {
		var r recvDict
		if _, err := r.apply(p); err == nil {
			t.Fatalf("%s: apply accepted corrupt announcement", name)
		}
	}
}

// TestDictBatchRoundTrip drives the tagged encoding directly: three
// batches through one send dictionary (so later batches reference
// entries the earlier ones promoted), announcements applied in flush
// order, every field surviving intact.
func TestDictBatchRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, To: Addr{Op: "B", Instance: 2}, From: 1,
			KeyOp: "A", Key: "Asia", Padding: 64, Values: []string{"Asia", "#golang"}},
		{Kind: KindData, To: Addr{Op: "B"}, Key: "Asia", Values: []string{"", "Asia"}},
		{Kind: KindData, To: Addr{Op: "B", Instance: 1}, Key: "ключ", Values: nil},
		{Kind: KindData, To: Addr{Op: "B"}, Key: "ключ", Values: []string{string([]byte{0xff, 0x00, 0xfe})}},
	}
	sd := newSendDict()
	var rd recvDict
	for round := 0; round < 3; round++ {
		var buf []byte
		for i := range msgs {
			buf = appendTupleDict(buf, &msgs[i], sd)
		}
		// A real flush writes the announce frame before the data frame.
		if len(sd.pending) > 0 {
			if _, err := rd.apply(sd.pending); err != nil {
				t.Fatalf("round %d: apply: %v", round, err)
			}
			sd.pending = sd.pending[:0]
			sd.pendingEntries = 0
		}
		got, err := appendBatchDict(nil, buf, &rd)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round %d: decoded batch differs:\n got %+v\nwant %+v", round, got, msgs)
		}
	}
	if sd.hits == 0 {
		t.Fatal("no dictionary hits across three identical batches")
	}
}

// --- end-to-end over real sockets ---

// wirePipe sends msgs 0 -> 1 through a two-node fabric with the given
// compression mode and returns what node 1's BatchHandler delivered (in
// order) plus the meter snapshot after everything arrived.
func wirePipe(t *testing.T, comp Compression, opts NodeOptions, msgs []Message) ([]Message, metrics.WireStats) {
	t.Helper()
	meter := new(metrics.WireMeter)
	var (
		mu       sync.Mutex
		got      []Message
		received atomic.Int64
	)
	opts.Compression = comp
	opts.Meter = meter
	opts.BatchHandler = func(_ int, batch []Message) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
		received.Add(int64(len(batch)))
	}
	f, err := NewFabricWith(2, func(int, Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := range msgs {
		if err := f.Send(0, 1, msgs[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitDelivered(t, &received, int64(len(msgs)))
	mu.Lock()
	defer mu.Unlock()
	return got, meter.Snapshot()
}

func waitDelivered(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d tuples", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// propertyMessages generates a deterministic adversarial batch stream:
// Zipf-ish key skew, unicode and raw-binary keys and values, empty
// strings, nil value slices, strings on both sides of maxKeyString (the
// longer ones legal inline, never interned) and past maxDictString, and
// the occasional tuple bigger than the flush threshold.
func propertyMessages(seed int64, n int) []Message {
	rng := rand.New(rand.NewSource(seed))
	hot := []string{
		"Asia", "Europe", "#golang", "clé-européenne", "ключ-горячий", "キー",
		string([]byte{0xff, 0x00, 0xfe, 0x80, 1, 2, 3}),
	}
	msgs := make([]Message, n)
	for i := range msgs {
		m := Message{
			Kind:    KindData,
			To:      Addr{Op: "B", Instance: rng.Intn(4)},
			From:    rng.Intn(4),
			KeyOp:   "A",
			Padding: rng.Intn(512),
		}
		if rng.Intn(10) < 8 {
			m.Key = hot[rng.Intn(len(hot))]
		} else {
			m.Key = fmt.Sprintf("cold-%d", i)
		}
		if nv := rng.Intn(4); nv > 0 {
			vals := make([]string, nv)
			for j := range vals {
				switch rng.Intn(10) {
				case 0:
					vals[j] = "" // empty field
				case 1, 2:
					b := make([]byte, rng.Intn(64))
					rng.Read(b)
					vals[j] = string(b) // raw binary, almost surely not UTF-8
				case 3:
					b := make([]byte, maxDictString+1+rng.Intn(256))
					rng.Read(b)
					vals[j] = string(b) // too long to intern, rides inline
				case 4:
					// A recurring value on either side of maxKeyString: the
					// shorter is interned, the longer inline every time and
					// left to LZ.
					vals[j] = strings.Repeat("edge", 17)[:maxKeyString-1+rng.Intn(3)]
				case 5:
					if i%8 == 0 {
						// A long run now and then: matches far longer than
						// the length nibble holds.
						vals[j] = strings.Repeat("\x00", 4096+rng.Intn(4096))
						break
					}
					fallthrough
				default:
					vals[j] = hot[rng.Intn(len(hot))]
				}
			}
			m.Values = vals
		}
		msgs[i] = m
	}
	// One tuple larger than the default flush threshold, exercising the
	// single-tuple-spills-a-frame path under every encoding.
	huge := make([]byte, DefaultFlushBytes+8192)
	rng.Read(huge)
	msgs[n/2].Values = []string{string(huge)}
	return msgs
}

// TestCompressionModesRoundTripProperty is the transport's property
// test: the same adversarial stream must arrive bit-identical, in
// order, under every compression mode — and all three modes must agree
// with each other.
func TestCompressionModesRoundTripProperty(t *testing.T) {
	msgs := propertyMessages(42, 2000)
	delivered := map[Compression][]Message{}
	for _, tc := range []struct {
		name string
		comp Compression
	}{
		{"off", CompressionOff},
		{"dict", CompressionDict},
		{"auto", CompressionAuto},
	} {
		got, st := wirePipe(t, tc.comp, NodeOptions{}, msgs)
		if !reflect.DeepEqual(got, msgs) {
			for i := range msgs {
				if i >= len(got) || !reflect.DeepEqual(got[i], msgs[i]) {
					t.Fatalf("%s: first mismatch at tuple %d of %d", tc.name, i, len(msgs))
				}
			}
			t.Fatalf("%s: delivered %d tuples, want %d", tc.name, len(got), len(msgs))
		}
		delivered[tc.comp] = got
		if st.TuplesReceived != uint64(len(msgs)) {
			t.Fatalf("%s: meter counted %d tuples received, want %d", tc.name, st.TuplesReceived, len(msgs))
		}
		switch tc.comp {
		case CompressionOff:
			if st.DictFramesSent != 0 || st.CompressedFramesSent != 0 {
				t.Fatalf("off: sent %d dict / %d compressed frames", st.DictFramesSent, st.CompressedFramesSent)
			}
			if st.RawBytesSent != st.BytesSent {
				t.Fatalf("off: RawBytesSent %d != BytesSent %d", st.RawBytesSent, st.BytesSent)
			}
		case CompressionDict:
			if st.DictFramesSent == 0 || st.DictHits == 0 {
				t.Fatal("dict: dictionary never used on a skewed stream")
			}
			if st.CompressedFramesSent != 0 {
				t.Fatal("dict: LZ pass ran with CompressionDict")
			}
		case CompressionAuto:
			if st.DictFramesSent == 0 {
				t.Fatal("auto: dictionary never used on a skewed stream")
			}
			if r := st.CompressionRatio(); r <= 1.0 {
				t.Fatalf("auto: compression ratio %.3f, want > 1.0", r)
			}
		}
	}
	if !reflect.DeepEqual(delivered[CompressionOff], delivered[CompressionAuto]) ||
		!reflect.DeepEqual(delivered[CompressionOff], delivered[CompressionDict]) {
		t.Fatal("modes disagree on the delivered stream")
	}
}

// TestReconnectFreshDictionary reconnects a peer mid-stream and proves
// the dictionaries reset together: the same hot strings are announced
// again on the new connection and every tuple still decodes. (If the
// sender kept its old dictionary the receiver would see references to
// entries never announced on this connection, the decode would fail and
// the second half of the stream would never arrive.)
func TestReconnectFreshDictionary(t *testing.T) {
	meter := new(metrics.WireMeter)
	var received atomic.Int64
	opts := NodeOptions{
		Meter: meter,
		BatchHandler: func(_ int, batch []Message) {
			received.Add(int64(len(batch)))
		},
	}
	n0, err := NewNodeWith(0, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNodeWith(1, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	addrs := map[int]string{1: n1.Addr()}
	if err := n0.Connect(addrs); err != nil {
		t.Fatal(err)
	}

	msg := Message{Kind: KindData, To: Addr{Op: "B", Instance: 1},
		KeyOp: "A", Key: "hot-key", Values: []string{"hot-value"}}
	for i := 0; i < 100; i++ {
		if err := n0.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitDelivered(t, &received, 100)
	first := meter.Snapshot()
	if first.DictEntriesSent == 0 {
		t.Fatal("no dictionary entries announced before reconnect")
	}

	// Reconnect: Connect drops the old connection first, so both ends
	// discard their dictionary state together.
	if err := n0.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := n0.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitDelivered(t, &received, 200)
	second := meter.Snapshot()
	if second.DictEntriesSent < first.DictEntriesSent+1 {
		t.Fatalf("reconnect announced no new entries (%d before, %d after): dictionary bled across connections",
			first.DictEntriesSent, second.DictEntriesSent)
	}
	// Every announced entry was installed: send and receive sides agree.
	if second.DictEntriesRecv != second.DictEntriesSent {
		t.Fatalf("receiver installed %d entries, sender announced %d",
			second.DictEntriesRecv, second.DictEntriesSent)
	}
}

// TestDropPeerSettlesPendingBatchExactly pins the loss accounting the
// engine's KillServer relies on: severing a connection with a pending
// batch reports exactly the batched tuple count through DropHandler,
// exactly once, and nothing through FlushedHandler.
func TestDropPeerSettlesPendingBatchExactly(t *testing.T) {
	var dropped, flushed atomic.Int64
	opts := NodeOptions{
		FlushBytes:     1 << 20,
		FlushInterval:  time.Hour, // nothing flushes on its own
		DropHandler:    func(tuples int) { dropped.Add(int64(tuples)) },
		FlushedHandler: func(_, tuples int) { flushed.Add(int64(tuples)) },
	}
	n0, err := NewNodeWith(0, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNodeWith(1, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	if err := n0.Connect(map[int]string{1: n1.Addr()}); err != nil {
		t.Fatal(err)
	}

	msg := Message{Kind: KindData, To: Addr{Op: "B"}, Key: "k", Values: []string{"v"}}
	const pending = 7
	for i := 0; i < pending; i++ {
		if err := n0.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	n0.DropPeer(1)
	if got := dropped.Load(); got != pending {
		t.Fatalf("DropHandler reported %d tuples, want exactly %d", got, pending)
	}
	if got := flushed.Load(); got != 0 {
		t.Fatalf("FlushedHandler sum = %d for tuples that never hit the wire", got)
	}
	n0.DropPeer(1) // idempotent: no double accounting
	if got := dropped.Load(); got != pending {
		t.Fatalf("second DropPeer changed the count to %d", got)
	}
	if err := n0.Send(1, msg); err == nil {
		t.Fatal("Send succeeded on a dropped peer")
	}
}

// TestWriteFailureSettlesPendingBatchExactly kills the socket under a
// pending batch (the regression this PR fixes: tuples in a
// not-yet-flushed batch must be counted when the connection breaks).
// The flush is forced by a control send, the write fails on the closed
// socket, and the accounting must settle to exactly the batched count —
// FlushedHandler's optimistic increment taken back, DropHandler told
// once.
func TestWriteFailureSettlesPendingBatchExactly(t *testing.T) {
	var dropped, flushed atomic.Int64
	opts := NodeOptions{
		FlushBytes:     1 << 20,
		FlushInterval:  time.Hour,
		DropHandler:    func(tuples int) { dropped.Add(int64(tuples)) },
		FlushedHandler: func(_, tuples int) { flushed.Add(int64(tuples)) },
	}
	n0, err := NewNodeWith(0, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNodeWith(1, func(Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	if err := n0.Connect(map[int]string{1: n1.Addr()}); err != nil {
		t.Fatal(err)
	}

	// Repeated keys so the batch also carries pending dictionary
	// announcements — the failing write is then the announce frame, the
	// earliest casualty on the flush path.
	msg := Message{Kind: KindData, To: Addr{Op: "B"}, Key: "hot", Values: []string{"hot"}}
	const pending = 5
	for i := 0; i < pending; i++ {
		if err := n0.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the socket out from under the batch, deterministically.
	pc := (*n0.peers.Load())[1]
	_ = pc.conn.Close()

	if err := n0.Send(1, Message{Kind: KindHeartbeat, From: 0}); err == nil {
		t.Fatal("control send succeeded on a closed socket")
	}
	if got := dropped.Load(); got != pending {
		t.Fatalf("DropHandler reported %d tuples, want exactly %d", got, pending)
	}
	if got := flushed.Load(); got != 0 {
		t.Fatalf("FlushedHandler sum = %d after failed flush, want 0", got)
	}
}

// TestSkewedWorkloadCompressionSavesBytes is the PR's headline number as
// a deterministic test: on a skewed keyed workload the dictionary+LZ
// path must cut on-wire bytes per tuple by at least 30% against the raw
// encoding (the engine-level benchmarks report the same metric for the
// bench gate).
func TestSkewedWorkloadCompressionSavesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hot := []string{"Asia", "Europe", "Africa", "Oceania", "#golang", "#storm", "#streams"}
	msgs := make([]Message, 4096)
	for i := range msgs {
		key := hot[rng.Intn(len(hot))]
		if rng.Intn(10) == 0 {
			key = fmt.Sprintf("cold-%d", i)
		}
		msgs[i] = Message{
			Kind: KindData, To: Addr{Op: "B", Instance: rng.Intn(4)},
			KeyOp: "A", Key: key, Padding: 64,
			Values: []string{key, hot[rng.Intn(len(hot))]},
		}
	}
	opts := NodeOptions{FlushBytes: 32 << 10, FlushInterval: 50 * time.Millisecond}
	_, off := wirePipe(t, CompressionOff, opts, msgs)
	_, auto := wirePipe(t, CompressionAuto, opts, msgs)

	offBPT, autoBPT := off.WireBytesPerTuple(), auto.WireBytesPerTuple()
	if offBPT == 0 || autoBPT == 0 {
		t.Fatalf("meter recorded no bytes (off %.1f, auto %.1f)", offBPT, autoBPT)
	}
	t.Logf("on-wire bytes/tuple: raw %.1f, compressed %.1f (ratio %.2fx, dict hit rate %.2f)",
		offBPT, autoBPT, auto.CompressionRatio(), auto.DictHitRate())
	if autoBPT > 0.7*offBPT {
		t.Fatalf("compressed path uses %.1f B/tuple, want <= 70%% of raw %.1f B/tuple", autoBPT, offBPT)
	}
	if r := auto.CompressionRatio(); r <= 1.0 {
		t.Fatalf("compression ratio %.3f, want > 1.0", r)
	}
}
