package transport

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

// bareConn is the sending half of a connection with no socket and no
// flusher behind it: the tests below drive it tuple by tuple and take
// the staged frames off its queue themselves, which makes every encoder
// decision — dictionary, LZ attempt, back-off, metering — observable
// frame by frame and deterministic.
type bareConn struct {
	n  *Node
	pc *peerConn
}

func newBareConn(opts NodeOptions) *bareConn {
	if opts.FlushBytes == 0 {
		opts.FlushBytes = DefaultFlushBytes
	}
	opts.FlushInterval = time.Hour
	n := &Node{opts: opts, now: time.Now}
	pc := newPeerConn(nil, &n.opts)
	pc.timer = time.AfterFunc(time.Hour, func() {})
	pc.timer.Stop()
	return &bareConn{n: n, pc: pc}
}

// send encodes one tuple and returns the frames that staged, if the
// batch reached FlushBytes.
func (c *bareConn) send(t *testing.T, m Message) []queuedFrame {
	t.Helper()
	c.pc.mu.Lock()
	defer c.pc.mu.Unlock()
	m.Kind = KindData
	if err := c.n.sendDataLocked(1, c.pc, &m); err != nil {
		t.Fatal(err)
	}
	return c.takeLocked()
}

// flush stages whatever is batched, as an idle hint would.
func (c *bareConn) flush(t *testing.T) []queuedFrame {
	t.Helper()
	c.pc.mu.Lock()
	defer c.pc.mu.Unlock()
	if err := c.n.stageBatchLocked(1, c.pc, metrics.FlushIdle); err != nil {
		t.Fatal(err)
	}
	return c.takeLocked()
}

// takeLocked plays the flusher: it takes the queue, meters the frames as
// written and recycles their buffers (the returned frames' bytes stay
// readable until the next send).
func (c *bareConn) takeLocked() []queuedFrame {
	frames := append([]queuedFrame(nil), c.pc.q...)
	c.pc.q, c.pc.qBytes = c.pc.q[:0], 0
	c.pc.wroteSeq = c.pc.enqSeq
	c.n.recordWritten(1, frames, len(frames))
	for i := range frames {
		c.pc.recycleBufLocked(frames[i].buf)
	}
	return frames
}

// dataFrames sends msgs(0), msgs(1), ... until count data frames have
// staged and returns them in order, each with a copy of its bytes (the
// buffer itself is recycled under the next frame).
func (c *bareConn) dataFrames(t *testing.T, count int, msgs func(i int) Message) []queuedFrame {
	t.Helper()
	var out []queuedFrame
	for i := 0; len(out) < count; i++ {
		for _, f := range c.send(t, msgs(i)) {
			if f.class == classData {
				f.buf = append([]byte(nil), f.buf...)
				out = append(out, f)
			}
		}
	}
	return out
}

// TestLZPolicyBacksOffAndRecovers pins the per-connection LZ policy on a
// seeded stream, flush by flush. Incompressible payload is attempted on
// the doubling schedule exactly — after an unproductive attempt 8
// flushes are skipped, then 16, ... then 256 for good — and every frame
// ships plain; when the stream then turns compressible the next due
// attempt (within the cap) is productive, and from there on every frame
// is attempted and compressed again.
func TestLZPolicyBacksOffAndRecovers(t *testing.T) {
	meter := new(metrics.WireMeter)
	c := newBareConn(NodeOptions{FlushBytes: 1 << 10, Meter: meter})
	rng := rand.New(rand.NewSource(31))
	noise := make([]byte, 200)

	const incompressible = 600
	frames := c.dataFrames(t, incompressible, func(int) Message {
		rng.Read(noise)
		return Message{To: Addr{Op: "B"}, KeyOp: "A", Key: "hot", Values: []string{"hot", string(noise)}}
	})

	// Attempt k+1 follows attempt k after a skip of 8<<k flushes, capped.
	var want, got []int
	for at, skip := 0, lzBackoffMin; at < incompressible; at, skip = at+skip+1, min(2*skip, lzBackoffMax) {
		want = append(want, at)
	}
	for i, f := range frames {
		if f.compressed {
			t.Fatalf("frame %d of random payload shipped compressed", i)
		}
		if f.lzTried {
			got = append(got, i)
		}
	}
	if !reflect.DeepEqual(got, want) || len(want) != 7 {
		t.Fatalf("LZ attempted at flushes %v, want %v", got, want)
	}
	if st := meter.Snapshot(); st.LZAttempts != 7 || st.CompressedFramesSent != 0 || st.FramesSent != incompressible {
		t.Fatalf("meter: %d attempts, %d kept, %d frames; want 7, 0, %d",
			st.LZAttempts, st.CompressedFramesSent, st.FramesSent, incompressible)
	}

	// One-off keys with a shared prefix: nothing for the dictionary, a lot
	// for LZ. The connection is 89 flushes into a 256-flush skip.
	nextDue := want[len(want)-1] + lzBackoffMax + 1 - incompressible
	frames = c.dataFrames(t, nextDue+20, func(i int) Message {
		key := fmt.Sprintf("cold-key-%08d", i)
		return Message{To: Addr{Op: "B"}, KeyOp: "A", Key: key, Values: []string{key}}
	})
	for i, f := range frames {
		if due := i >= nextDue; f.lzTried != due || f.compressed != due {
			t.Fatalf("compressible frame %d: tried=%v compressed=%v, want both %v (next attempt due at %d)",
				i, f.lzTried, f.compressed, due, nextDue)
		}
	}
	if nextDue > lzBackoffMax {
		t.Fatalf("the stream turned compressible and went unnoticed for %d flushes, cap %d", nextDue, lzBackoffMax)
	}
}

// TestLZPolicyShipsMarginalSavingsPlain is the case the policy exists
// for: a stream of incompressible payload whose only redundancy is the
// few bytes of tuple header and trailer around it. LZ does make such a
// frame smaller — by a few percent — and that used to count as a win on
// every frame. It must ship plain and back off like any other
// unproductive attempt.
func TestLZPolicyShipsMarginalSavingsPlain(t *testing.T) {
	c := newBareConn(NodeOptions{FlushBytes: 4 << 10})
	rng := rand.New(rand.NewSource(37))
	noise := make([]byte, 192)
	msg := func(int) Message {
		rng.Read(noise)
		// The trailer sits inside an inline value: out of the dictionary's
		// reach, within LZ's.
		return Message{To: Addr{Op: "B"}, KeyOp: "A", Key: "hot", Values: []string{"hot", string(noise) + "-trailer"}}
	}
	// What LZ makes of the first frame, measured, so the test says so if
	// the stream ever stops being marginally compressible.
	f := c.dataFrames(t, 1, msg)[0]
	if !f.lzTried || f.compressed {
		t.Fatalf("first frame: tried=%v compressed=%v, want an attempt that ships plain", f.lzTried, f.compressed)
	}
	first := f.buf[frameHeaderLen:]
	var table [1 << lzHashBits]int32
	saved := len(first) - len(lzAppendCompress(nil, first, &table))
	if saved <= 0 || saved >= len(first)/lzMinSaving {
		t.Fatalf("LZ saves %d of %d bytes: the stream is not marginally compressible", saved, len(first))
	}
	t.Logf("LZ saves %d of %d bytes (%.1f%%): shipped plain", saved, len(first), 100*float64(saved)/float64(len(first)))

	frames := c.dataFrames(t, lzBackoffMin+1, msg)
	for i, f := range frames {
		if due := i == lzBackoffMin; f.lzTried != due || f.compressed {
			t.Fatalf("frame %d after the unproductive attempt: tried=%v compressed=%v, want tried=%v, plain",
				i+1, f.lzTried, f.compressed, due)
		}
	}
}

// TestEncodeMeterSamplesPerConnection: the encode-time meter times one
// tuple in 64 and weights it 64×, so over N tuples the weights must add
// up to N — however the tuples fall into batches. The sample counter
// used to restart with every batch, which timed the first tuple of each:
// in batches of 8 the weights added up to 8N. The clock is replaced by
// one that advances 1 µs per reading, so every timed encode lasts
// exactly 1 µs and the recorded time is the weight in µs.
func TestEncodeMeterSamplesPerConnection(t *testing.T) {
	meter := new(metrics.WireMeter)
	c := newBareConn(NodeOptions{Meter: meter, Compression: CompressionOff})
	var readings int64
	c.n.now = func() time.Time {
		readings++
		return time.Unix(0, readings*int64(time.Microsecond))
	}
	const tuples, batch = 1024, 8
	for i := 0; i < tuples; i++ {
		c.send(t, Message{To: Addr{Op: "B"}, Key: "k", Values: []string{"v"}})
		if (i+1)%batch == 0 {
			if frames := c.flush(t); len(frames) != 1 || frames[0].tuples != batch {
				t.Fatalf("flush after tuple %d staged %+v", i, frames)
			}
		}
	}
	weight := meter.Snapshot().EncodeNanos / uint64(time.Microsecond)
	if weight < tuples-(encodeSampleMask+1) || weight > tuples+(encodeSampleMask+1) {
		t.Fatalf("encode samples weigh %d tuples over %d sent in batches of %d, want within one sample (%d)",
			weight, tuples, batch, encodeSampleMask+1)
	}
}

// TestEncoderGoldenFrames pins the bytes a fixed batch puts on the wire
// — the announce frame and the tagged data frame, neither of whose
// layouts this encoder may change — and has the reference decoder, the
// one every deployed receiver runs, read them back. The batch covers a
// promoted key and operator names (references), a first sighting and an
// empty string (inline), a recurring 65-byte string (longer than a key:
// inline every time, where earlier senders would have announced it) and
// a tuple without values. A second, compressible batch must come back
// through the unedited LZ decoder.
func TestEncoderGoldenFrames(t *testing.T) {
	long := strings.Repeat("L", maxKeyString+1)
	batch := []Message{
		{Kind: KindData, To: Addr{Op: "B", Instance: 2}, From: 1, KeyOp: "A", Key: "Asia", Padding: 64, Values: []string{"Asia", "#golang", long}},
		{Kind: KindData, To: Addr{Op: "B", Instance: 1}, KeyOp: "A", Key: "Asia", Values: []string{"Asia", "", long}},
		{Kind: KindData, To: Addr{Op: "B"}, KeyOp: "A", Key: "Oslo"},
	}
	c := newBareConn(NodeOptions{})
	for i := range batch {
		if frames := c.send(t, batch[i]); len(frames) != 0 {
			t.Fatalf("tuple %d staged %d frames before the flush", i, len(frames))
		}
	}
	frames := c.flush(t)
	if len(frames) != 2 || frames[0].class != classDict || frames[1].class != classData || frames[1].lzTried {
		t.Fatalf("staged %+v, want one announce and one plain data frame", frames)
	}
	var (
		longHex = "8201" + strings.Repeat("4c", maxKeyString+1) // inline, 65 bytes
		// Type 0x03, 12 bytes, entries in promotion order: 0 "Asia" (seen
		// as tuple 1's key, promoted as its first value), 1 "B", 2 "A".
		goldenDict = "03" + "0c000000" + "00" + "0441736961" + "01" + "0142" + "02" + "0141"
		// Type 0x04, 176 bytes, three tagged records: op, instance, from,
		// keyOp, key, padding, nvalues, values.
		goldenData = "04" + "b0000000" +
			"0242" + "02" + "01" + "0241" + "0841736961" + "40" + "03" + "01" + "0e23676f6c616e67" + longHex +
			"03" + "01" + "00" + "05" + "01" + "00" + "03" + "01" + "00" + longHex +
			"03" + "00" + "00" + "05" + "084f736c6f" + "00" + "00"
	)
	if got := hex.EncodeToString(frames[0].buf); got != goldenDict {
		t.Fatalf("announce frame:\n got %s\nwant %s", got, goldenDict)
	}
	if got := hex.EncodeToString(frames[1].buf); got != goldenData {
		t.Fatalf("data frame:\n got %s\nwant %s", got, goldenData)
	}
	var rd recvDict
	if n, err := rd.apply(frames[0].buf[frameHeaderLen:]); err != nil || n != 3 {
		t.Fatalf("announce: %d entries, err %v", n, err)
	}
	got, err := refAppendBatchDict(nil, frames[1].buf[frameHeaderLen:], &rd)
	if err != nil || !reflect.DeepEqual(got, batch) {
		t.Fatalf("reference decoder read %+v (err %v), want the batch", got, err)
	}

	// Same tuples, enough of them to be worth an LZ attempt.
	var want []Message
	for len(want) < 60 {
		want = append(want, batch...)
	}
	for i := range want {
		c.send(t, want[i])
	}
	frames = c.flush(t) // "#golang" and "Oslo" recur now: a second announce leads
	if len(frames) != 2 || frames[0].class != classDict || !frames[1].compressed {
		t.Fatalf("staged %+v, want an announce and a compressed data frame", frames)
	}
	if _, err := rd.apply(frames[0].buf[frameHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	inner, raw, err := unwrapCompressed(frames[1].buf[frameHeaderLen:])
	if err != nil || inner != frameDataDict {
		t.Fatalf("unwrap: inner type %#x, err %v", inner, err)
	}
	defer putBuf(raw)
	if got, err = refAppendBatchDict(nil, *raw, &rd); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reference decoder read %d tuples from the compressed frame (err %v), want %d", len(got), err, len(want))
	}
}
