package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The decoders as they stood before the frame arenas — one []string and
// one string allocation per tuple and per field — kept verbatim as the
// reference the arena decoder is compared against. Nothing outside the
// tests calls them.

func refAppendBatch(dst []Message, p []byte) ([]Message, error) {
	for len(p) > 0 {
		var (
			m  Message
			u  uint64
			ok bool
		)
		m.Kind = KindData
		if m.To.Op, p, ok = readString(p); !ok {
			return dst, errFrameCorrupt
		}
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.To.Instance = int(u)
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.From = int(u)
		if m.KeyOp, p, ok = readString(p); !ok {
			return dst, errFrameCorrupt
		}
		if m.Key, p, ok = readString(p); !ok {
			return dst, errFrameCorrupt
		}
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.Padding = int(u)
		if u, p, ok = readUvarint(p); !ok {
			return dst, errFrameCorrupt
		}
		if u > uint64(len(p)) {
			return dst, errFrameCorrupt
		}
		if u > 0 {
			vals := make([]string, u)
			for i := range vals {
				if vals[i], p, ok = readString(p); !ok {
					return dst, errFrameCorrupt
				}
			}
			m.Values = vals
		}
		dst = append(dst, m)
	}
	return dst, nil
}

func refReadDictString(p []byte, d *recvDict) (string, []byte, bool) {
	v, rest, ok := readUvarint(p)
	if !ok {
		return "", p, false
	}
	if v&1 == 1 {
		id := v >> 1
		if id >= uint64(len(d.entries)) {
			return "", p, false
		}
		return d.entries[id], rest, true
	}
	n := v >> 1
	if n > uint64(len(rest)) {
		return "", p, false
	}
	return string(rest[:n]), rest[n:], true
}

func refAppendBatchDict(dst []Message, p []byte, d *recvDict) ([]Message, error) {
	for len(p) > 0 {
		var (
			m  Message
			u  uint64
			ok bool
		)
		m.Kind = KindData
		if m.To.Op, p, ok = refReadDictString(p, d); !ok {
			return dst, errFrameCorrupt
		}
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.To.Instance = int(u)
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.From = int(u)
		if m.KeyOp, p, ok = refReadDictString(p, d); !ok {
			return dst, errFrameCorrupt
		}
		if m.Key, p, ok = refReadDictString(p, d); !ok {
			return dst, errFrameCorrupt
		}
		if u, p, ok = readUvarint(p); !ok || u > maxIntField {
			return dst, errFrameCorrupt
		}
		m.Padding = int(u)
		if u, p, ok = readUvarint(p); !ok {
			return dst, errFrameCorrupt
		}
		if u > uint64(len(p)) {
			return dst, errFrameCorrupt
		}
		if u > 0 {
			vals := make([]string, u)
			for i := range vals {
				if vals[i], p, ok = refReadDictString(p, d); !ok {
					return dst, errFrameCorrupt
				}
			}
			m.Values = vals
		}
		dst = append(dst, m)
	}
	return dst, nil
}

// checkDecodersAgree decodes one payload with the arena decoder and the
// reference, raw and tagged against dict, and requires the same verdict
// and — on success — the same messages, nil Values included. On error
// the arena decoder must hand back dst untouched: no partial delivery.
func checkDecodersAgree(t *testing.T, what string, payload []byte, dict *recvDict) {
	t.Helper()
	for _, tagged := range []bool{false, true} {
		var (
			got, want []Message
			err, rerr error
		)
		if tagged {
			got, err = appendBatchDict(nil, payload, dict)
			want, rerr = refAppendBatchDict(nil, payload, dict)
		} else {
			got, err = appendBatch(nil, payload)
			want, rerr = refAppendBatch(nil, payload)
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s (tagged=%v): decoder err=%v, reference err=%v", what, tagged, err, rerr)
		}
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("%s (tagged=%v): %d messages delivered from a corrupt payload", what, tagged, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s (tagged=%v): message %d of %d differs from the reference", what, tagged, i, len(want))
				}
			}
			t.Fatalf("%s (tagged=%v): decoded %d messages, reference %d", what, tagged, len(got), len(want))
		}
	}
}

// corpusArgs reads one committed fuzz corpus file back into its []byte
// arguments.
func corpusArgs(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var args [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "[]byte(") {
			continue
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		args = append(args, []byte(s))
	}
	if len(args) == 0 {
		t.Fatalf("%s: no []byte arguments", path)
	}
	return args
}

// TestDecoderMatchesReferenceOnCorpora runs every committed seed of the
// two frame fuzz targets through both decoders: FuzzFrameDecode's as a
// framed stream (frame by frame, the way serve unwraps them) and as a
// bare payload, FuzzDictDecode's as an announce payload plus a batch.
func TestDecoderMatchesReferenceOnCorpora(t *testing.T) {
	streams, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzFrameDecode", "*"))
	if err != nil || len(streams) == 0 {
		t.Fatalf("no FuzzFrameDecode corpus: %v", err)
	}
	for _, path := range streams {
		stream := corpusArgs(t, path)[0]
		checkDecodersAgree(t, path+" bare", stream, new(recvDict))
		r := bytes.NewReader(stream)
		hdr := make([]byte, frameHeaderLen)
		var rd recvDict
	frames:
		for frame := 0; ; frame++ {
			typ, bp, err := readFrame(r, hdr)
			if err != nil {
				break
			}
			payload := append([]byte(nil), *bp...)
			putBuf(bp)
			if typ == frameCompressed {
				var rawBp *[]byte
				if typ, rawBp, err = unwrapCompressed(payload); err != nil {
					break
				}
				payload = append([]byte(nil), *rawBp...)
				putBuf(rawBp)
			}
			switch typ {
			case frameDict:
				if _, err := rd.apply(payload); err != nil {
					break frames
				}
			case frameData, frameDataDict:
				checkDecodersAgree(t, path+" frame "+strconv.Itoa(frame), payload, &rd)
			}
		}
	}
	pairs, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDictDecode", "*"))
	if err != nil || len(pairs) == 0 {
		t.Fatalf("no FuzzDictDecode corpus: %v", err)
	}
	for _, path := range pairs {
		args := corpusArgs(t, path)
		if len(args) != 2 {
			t.Fatalf("%s: %d arguments, want 2", path, len(args))
		}
		var rd recvDict
		_, _ = rd.apply(args[0]) // a rejected announce leaves what it installed before the error
		checkDecodersAgree(t, path, args[1], &rd)
	}
}

// edgeLengths are the string sizes on both sides of every threshold the
// wire path has: empty, a key's worth, maxKeyString and one past it (the
// copy-out/arena boundary), maxDictString and one past it.
var edgeLengths = []int{0, 1, 5, maxKeyString - 1, maxKeyString, maxKeyString + 1, 200, maxDictString, maxDictString + 1}

// randomBatch builds a seeded batch in both encodings: raw, and tagged
// against a send dictionary whose announcements are returned alongside.
// Strings recur (so references appear), sit on every edge length, and
// Values is nil, empty-stringed or long.
func randomBatch(rng *rand.Rand, sd *sendDict) (raw, tagged []byte) {
	noise := make([]byte, 2*maxDictString)
	rng.Read(noise)
	str := func() string {
		n := edgeLengths[rng.Intn(len(edgeLengths))]
		if rng.Intn(3) == 0 {
			// A recurring string of that length: the same window each time.
			return string(noise[:n])
		}
		off := rng.Intn(len(noise) - n)
		return string(noise[off : off+n])
	}
	for tuples := rng.Intn(12); tuples > 0; tuples-- {
		m := Message{
			Kind: KindData, To: Addr{Op: str(), Instance: rng.Intn(1 << 20)}, From: rng.Intn(8),
			KeyOp: str(), Key: str(), Padding: rng.Intn(1 << 16),
		}
		if nv := rng.Intn(5); nv > 0 {
			m.Values = make([]string, nv)
			for i := range m.Values {
				m.Values[i] = str()
			}
		}
		raw = appendTuple(raw, &m)
		tagged = appendTupleDict(tagged, &m, sd)
	}
	return raw, tagged
}

// TestDecoderMatchesReferenceOnRandomBatches is the seeded half of the
// equivalence proof: 10 000 random batches in both encodings through one
// long-lived dictionary pair, each also cut short and bit-flipped so the
// error paths are compared too.
func TestDecoderMatchesReferenceOnRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sd := newSendDict()
	var rd recvDict
	for i := 0; i < 10000; i++ {
		raw, tagged := randomBatch(rng, sd)
		if len(sd.pending) > 0 {
			if _, err := rd.apply(sd.pending); err != nil {
				t.Fatalf("batch %d: announce: %v", i, err)
			}
			sd.pending, sd.pendingEntries = sd.pending[:0], 0
		}
		what := "batch " + strconv.Itoa(i)
		checkDecodersAgree(t, what+" raw", raw, &rd)
		checkDecodersAgree(t, what+" tagged", tagged, &rd)
		if len(tagged) > 0 {
			checkDecodersAgree(t, what+" cut", tagged[:rng.Intn(len(tagged))], &rd)
			flipped := append([]byte(nil), tagged...)
			flipped[rng.Intn(len(flipped))] ^= byte(1 << rng.Intn(8))
			checkDecodersAgree(t, what+" flipped", flipped, &rd)
		}
	}
	if len(rd.entries) == 0 {
		t.Fatal("no dictionary entry was ever promoted: the tagged path saw no references")
	}
}

// payloadFrame builds the frame a payload-carrying stream puts on the
// wire once its connection is warm: tuples tagged records whose operator
// names and keys are dictionary references and whose last value is a
// valueLen-byte window of seeded noise, plus the dictionary to decode
// them against.
func payloadFrame(t *testing.T, tuples, valueLen int) ([]byte, *recvDict) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	noise := make([]byte, tuples*valueLen)
	rng.Read(noise)
	sd := newSendDict()
	var p []byte
	for pass := 0; pass < 3; pass++ { // by the third pass every key is a reference
		p = p[:0]
		for i := 0; i < tuples; i++ {
			key := "k" + strconv.Itoa(i&7)
			m := Message{Kind: KindData, To: Addr{Op: "B", Instance: i & 3}, KeyOp: "A", Key: key,
				Values: []string{key, string(noise[i*valueLen : (i+1)*valueLen])}}
			p = appendTupleDict(p, &m, sd)
		}
	}
	rd := new(recvDict)
	if _, err := rd.apply(sd.pending); err != nil {
		t.Fatal(err)
	}
	return p, rd
}

// TestDecodeAllocatesPerFrameNotPerTuple pins the arena decoder's
// allocation count: a 64-tuple frame with 512 B values costs the value
// slab and the payload arena, where it used to cost a []string and a
// string per tuple (128); and the kind of frame BenchmarkWireForward
// streams — short tuples whose strings are references or empty — costs
// the slab alone, which is what takes that benchmark from 1 alloc/op
// to 0.
func TestDecodeAllocatesPerFrameNotPerTuple(t *testing.T) {
	for _, tc := range []struct {
		name             string
		tuples, valueLen int
		max              float64
	}{
		{"64 tuples with 512 B values", 64, 512, 3},
		{"1024 tuples without payload", 1024, 0, 1},
	} {
		p, rd := payloadFrame(t, tc.tuples, tc.valueLen)
		dst := make([]Message, 0, tc.tuples)
		// Best of several short trials: under the race detector sync.Pool
		// drops a quarter of what it is given, and a decode that has to
		// regrow the value scratch says nothing about the steady state.
		allocs := math.Inf(1)
		for trial := 0; trial < 20; trial++ {
			allocs = min(allocs, testing.AllocsPerRun(5, func() {
				var err error
				if dst, err = appendBatchDict(dst[:0], p, rd); err != nil || len(dst) != tc.tuples {
					t.Fatalf("%s: decoded %d tuples, err %v", tc.name, len(dst), err)
				}
			}))
		}
		if allocs > tc.max {
			t.Fatalf("%s: decoding allocates %.0f times a frame, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestDecodedMessagesOutliveTheReadBuffer is the arena lifetime rule as a
// test: once a frame is decoded its pooled payload buffer is recycled
// and overwritten by the next read, and nothing a decoded Message holds
// may change — neither short strings (copied out) nor long ones
// (substrings of the frame's own arena, not of the buffer).
func TestDecodedMessagesOutliveTheReadBuffer(t *testing.T) {
	frame, rd := payloadFrame(t, 16, 512)
	want, err := refAppendBatchDict(nil, frame, rd)
	if err != nil {
		t.Fatal(err)
	}
	bp := getBuf(len(frame))
	copy(*bp, frame)
	got, err := appendBatchDict(nil, *bp, rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := range *bp {
		(*bp)[i] = 0xEE
	}
	putBuf(bp)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded messages changed when the payload buffer was overwritten")
	}
}

// TestDecodedValuesDoNotShareCapacity: the tuples of a frame share one
// value slab, so each Values slice must be capped at its own length —
// an append reallocates rather than writing into the next tuple's
// values — and a tuple without values gets nil, as it always did.
func TestDecodedValuesDoNotShareCapacity(t *testing.T) {
	in := []Message{
		{Kind: KindData, To: Addr{Op: "B"}, Values: []string{"a0", "a1"}},
		{Kind: KindData, To: Addr{Op: "B"}},
		{Kind: KindData, To: Addr{Op: "B"}, Values: []string{"c0"}},
	}
	var p []byte
	for i := range in {
		p = appendTuple(p, &in[i])
	}
	got, err := appendBatch(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if len(got[i].Values) != cap(got[i].Values) {
			t.Fatalf("tuple %d: Values has len %d, cap %d", i, len(got[i].Values), cap(got[i].Values))
		}
	}
	if got[1].Values != nil {
		t.Fatalf("tuple without values decoded to %#v, want nil", got[1].Values)
	}
	_ = append(got[0].Values, "intruder")
	got[0].Values[1] = "rewritten"
	if !reflect.DeepEqual(got[2].Values, []string{"c0"}) {
		t.Fatalf("neighbour's values changed to %q", got[2].Values)
	}
}

// TestReceiverAcceptsLongEntriesOlderSendersAnnounce is the wire
// compatibility the send-side cap must not break: a sender of an earlier
// revision interns strings up to maxDictString, so the frames below —
// built by hand, as that sender lays them out — announce a 1 024-byte
// entry and then reference it. The receiver installs and resolves it.
func TestReceiverAcceptsLongEntriesOlderSendersAnnounce(t *testing.T) {
	long := strings.Repeat("v", maxDictString)
	announce := binary.AppendUvarint(nil, 0) // id 0
	announce = binary.AppendUvarint(announce, uint64(len(long)))
	announce = append(announce, long...)
	announce = binary.AppendUvarint(announce, 1) // id 1
	announce = append(binary.AppendUvarint(announce, 1), 'B')

	ref := func(id uint64) []byte { return binary.AppendUvarint(nil, id<<1|1) }
	var batch []byte
	for i := 0; i < 2; i++ {
		batch = append(batch, ref(1)...)      // To.Op "B"
		batch = append(batch, 0, 0)           // instance, from
		batch = append(batch, 0, 0)           // KeyOp "", Key "" (inline, empty)
		batch = append(batch, 0, 2)           // padding, two values
		batch = append(batch, ref(0)...)      // the long entry
		batch = append(batch, 2<<1, 'h', 'i') // an inline string beside it
	}

	var rd recvDict
	if n, err := rd.apply(announce); err != nil || n != 2 {
		t.Fatalf("apply: %d entries, err %v; want 2, nil", n, err)
	}
	got, err := appendBatchDict(nil, batch, &rd)
	if err != nil {
		t.Fatal(err)
	}
	want := Message{Kind: KindData, To: Addr{Op: "B"}, Values: []string{long, "hi"}}
	if len(got) != 2 || !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("decoded %d messages; first %+v", len(got), got)
	}
	checkDecodersAgree(t, "long-entry batch", batch, &rd)
}
