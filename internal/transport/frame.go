package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// Wire framing. Every message crosses the socket inside a
// length-prefixed frame:
//
//	+------+----------------+=================+
//	| type | payload length |     payload     |
//	| 1 B  | 4 B, LE uint32 | length bytes    |
//	+------+----------------+=================+
//
// frameData carries a batch of KindData messages in the compact binary
// tuple encoding below; frameControlV2 carries exactly one control
// Message (migration snapshots, propagation markers, heartbeats) in
// the versioned varint layout of ctrl.go. frameDict announces
// per-connection dictionary entries, frameDataDict is the
// dictionary-tagged batch encoding, and frameCompressed wraps an
// LZ-compressed frameData/frameDataDict payload (see dict.go and
// lz.go; byte layouts in PROTOCOL.md).
//
// A reader that cannot parse a frame — truncated header or payload,
// length prefix beyond maxFramePayload, unknown type byte, malformed
// tuple encoding — drops the whole connection. Frames are applied only
// after being read and decoded completely, so a torn frame can never
// deliver a partial tuple.
const (
	frameHeaderLen = 5

	frameData byte = 0x01
	// 0x02 is retired: it carried the PR 4–8 gob control encoding and
	// is rejected as corrupt today. Do not reuse the id — a frame from
	// a stale peer must fail loudly, not misparse.
	frameDict       byte = 0x03
	frameDataDict   byte = 0x04
	frameCompressed byte = 0x05
	frameControlV2  byte = 0x06

	// maxFramePayload bounds a frame's declared payload length. A reader
	// seeing a larger prefix treats the stream as corrupt and drops the
	// connection instead of allocating whatever a flipped bit asks for.
	// Control frames carry whole migration snapshots, so the cap is
	// generous; data frames flush far earlier (NodeOptions.FlushBytes).
	maxFramePayload = 64 << 20

	// maxIntField bounds the integer fields of a tuple record (instance,
	// origin server, padding) so a corrupt varint cannot overflow int on
	// any platform.
	maxIntField = 1 << 31
)

var errFrameCorrupt = errors.New("transport: corrupt frame")

// putFrameHeader stamps the type byte and payload length over the
// frameHeaderLen bytes reserved at the front of buf.
func putFrameHeader(buf []byte, typ byte) {
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:frameHeaderLen], uint32(len(buf)-frameHeaderLen))
}

// appendTuple appends the binary encoding of one KindData message to
// buf and returns the extended slice. Every field is varint-prefixed;
// the encoding allocates nothing beyond buf's own growth, which the
// per-peer batch buffer amortizes to zero in steady state.
//
// Tuple record layout (all integers unsigned varints):
//
//	opLen, op bytes        — To.Op
//	instance               — To.Instance
//	from                   — origin server
//	keyOpLen, keyOp bytes  — operator whose key last applied
//	keyLen, key bytes      — that key
//	padding                — synthetic payload size
//	nvalues                — len(Values)
//	nvalues × (len, bytes) — the values
func appendTuple(buf []byte, m *Message) []byte {
	buf = appendString(buf, m.To.Op)
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.To.Instance)))
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.From)))
	buf = appendString(buf, m.KeyOp)
	buf = appendString(buf, m.Key)
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.Padding)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Values)))
	for _, v := range m.Values {
		buf = appendString(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func nonNeg(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// appendBatch decodes a frameData payload, appending one KindData
// Message per tuple record to dst. The payload is consumed to its end;
// any leftover or short field means the frame is corrupt and the
// connection must be dropped. Every declared length is validated
// against the bytes actually remaining before any allocation, so a
// corrupt length prefix can never make the decoder allocate more than
// O(len(p)).
func appendBatch(dst []Message, p []byte) ([]Message, error) {
	return decodeBatch(dst, p, nil)
}

// batchDecoder decodes one data-frame payload without allocating per
// tuple. What the decoded messages keep of the frame lives in two
// per-frame arenas, both ordinary garbage-collected objects that are
// never pooled or reused, so nothing a receiver can reach ever changes
// under it:
//
//   - one []string slab holding every tuple's Values back to back; each
//     Message.Values is a slice of it capped at its own length, so an
//     append to one tuple's Values reallocates instead of overwriting
//     its neighbour's;
//   - one string copy of the payload, made when the first inline string
//     longer than maxKeyString is met, of which every such string is a
//     substring.
//
// Inline strings up to maxKeyString are copied out one by one:
// operators keep keys in maps, and a retained 5-byte key must not pin a
// 64KiB frame. A receiver that keeps a longer value does pin the frame
// it arrived in until it lets go or clones the string.
type batchDecoder struct {
	payload []byte    // the whole frame payload, for arena offsets
	dict    *recvDict // nil: raw length-prefixed strings (frameData)
	arena   string    // string(payload), made on first use
	vals    []string  // every decoded tuple's values so far, in order
}

// readString reads one string field at the front of p: tagged
// (dictionary reference or inline, see dict.go) when the decoder has a
// dictionary, length-prefixed otherwise. References share the
// dictionary entry's memory.
func (bd *batchDecoder) readString(p []byte) (string, []byte, bool) {
	v, rest, ok := readUvarint(p)
	if !ok {
		return "", p, false
	}
	if bd.dict != nil {
		if v&1 == 1 {
			id := v >> 1
			if id >= uint64(len(bd.dict.entries)) {
				return "", p, false
			}
			return bd.dict.entries[id], rest, true
		}
		v >>= 1
	}
	if v > uint64(len(rest)) {
		return "", p, false
	}
	n := int(v)
	if n <= maxKeyString {
		return string(rest[:n]), rest[n:], true
	}
	if bd.arena == "" {
		bd.arena = string(bd.payload)
	}
	off := len(bd.payload) - len(rest)
	return bd.arena[off : off+n], rest[n:], true
}

// readTuple decodes the tuple record at the front of p into m, leaving
// its values at the end of bd.vals for decodeBatch to place.
func (bd *batchDecoder) readTuple(m *Message, p []byte) ([]byte, bool) {
	var (
		u  uint64
		ok bool
	)
	m.Kind = KindData
	if m.To.Op, p, ok = bd.readString(p); !ok {
		return p, false
	}
	if u, p, ok = readUvarint(p); !ok || u > maxIntField {
		return p, false
	}
	m.To.Instance = int(u)
	if u, p, ok = readUvarint(p); !ok || u > maxIntField {
		return p, false
	}
	m.From = int(u)
	if m.KeyOp, p, ok = bd.readString(p); !ok {
		return p, false
	}
	if m.Key, p, ok = bd.readString(p); !ok {
		return p, false
	}
	if u, p, ok = readUvarint(p); !ok || u > maxIntField {
		return p, false
	}
	m.Padding = int(u)
	// Each value costs at least one length or tag byte, so a count beyond
	// the remaining bytes is unsatisfiable.
	if u, p, ok = readUvarint(p); !ok || u > uint64(len(p)) {
		return p, false
	}
	from := len(bd.vals)
	for ; u > 0; u-- {
		var v string
		if v, p, ok = bd.readString(p); !ok {
			return p, false
		}
		bd.vals = append(bd.vals, v)
	}
	if len(bd.vals) > from {
		// Only the length counts yet: the scratch may still move.
		m.Values = bd.vals[from:]
	}
	return p, true
}

// valsPool recycles the scratch a frame's values are gathered in while
// their number is not yet known.
var valsPool = sync.Pool{New: func() any { return new([]string) }}

// decodeBatch is the decoder behind appendBatch (d == nil) and
// appendBatchDict. On error nothing is appended to dst.
func decodeBatch(dst []Message, p []byte, d *recvDict) ([]Message, error) {
	scratch := valsPool.Get().(*[]string)
	bd := batchDecoder{payload: p, dict: d, vals: (*scratch)[:0]}
	first := len(dst)
	ok := true
	for ok && len(p) > 0 {
		dst = append(dst, Message{})
		p, ok = bd.readTuple(&dst[len(dst)-1], p)
	}
	if ok && len(bd.vals) > 0 {
		// The frame decoded whole: move its values into their slab and
		// give each tuple its share, in order.
		slab := make([]string, len(bd.vals))
		copy(slab, bd.vals)
		for i := first; i < len(dst); i++ {
			if n := len(dst[i].Values); n > 0 {
				dst[i].Values, slab = slab[:n:n], slab[n:]
			}
		}
	}
	// The pooled scratch must not keep the frame's strings alive.
	clear(bd.vals)
	*scratch = bd.vals[:0]
	valsPool.Put(scratch)
	if !ok {
		// Whatever was decoded still points into the scratch: drop it.
		clear(dst[first:])
		return dst[:first], errFrameCorrupt
	}
	return dst, nil
}

func readUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

// readString reads one varint-prefixed string, copying it out of p.
func readString(p []byte) (string, []byte, bool) {
	v, rest, ok := readUvarint(p)
	if !ok || v > uint64(len(rest)) {
		return "", p, false
	}
	return string(rest[:v]), rest[v:], true
}

// readFrame reads one complete frame from r: the fixed header into hdr,
// then the payload into a pooled buffer (return it with putBuf). Any
// error — including a corrupt type byte or an oversized length prefix —
// means the stream is unusable and the connection must be dropped.
func readFrame(r io.Reader, hdr []byte) (typ byte, payload *[]byte, err error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	switch typ {
	case frameData, frameDict, frameDataDict, frameCompressed, frameControlV2:
	default:
		return 0, nil, errFrameCorrupt
	}
	length := binary.LittleEndian.Uint32(hdr[1:frameHeaderLen])
	if length > maxFramePayload {
		return 0, nil, errFrameCorrupt
	}
	bp := getBuf(int(length))
	if _, err := io.ReadFull(r, *bp); err != nil {
		putBuf(bp)
		return 0, nil, err
	}
	return typ, bp, nil
}

// unwrapCompressed decodes a frameCompressed payload: one inner type
// byte (only data batches are ever compressed), the uvarint raw length,
// then the LZ stream. The declared raw length is enforced exactly — a
// stream that inflates short or long is corrupt — and bounded by
// maxFramePayload before any allocation, so a flipped length byte can
// never balloon memory. The returned buffer holds the raw payload;
// release it with putBuf.
func unwrapCompressed(p []byte) (inner byte, raw *[]byte, err error) {
	if len(p) < 2 {
		return 0, nil, errFrameCorrupt
	}
	inner = p[0]
	if inner != frameData && inner != frameDataDict {
		return 0, nil, errFrameCorrupt
	}
	rawLen, rest, ok := readUvarint(p[1:])
	if !ok || rawLen > maxFramePayload {
		return 0, nil, errFrameCorrupt
	}
	bp := getBuf(int(rawLen))
	out, err := lzAppendDecompress((*bp)[:0], rest, int(rawLen))
	*bp = out
	if err != nil || len(out) != int(rawLen) {
		putBuf(bp)
		return 0, nil, errFrameCorrupt
	}
	return inner, bp, nil
}

// bufPool recycles frame payload buffers between reads (and control
// frame encodes), so the steady-state wire path allocates nothing per
// frame.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps occasional giant buffers (large migration
// snapshots) from being pinned in the pool forever.
const maxPooledBuf = 1 << 20

func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	bufPool.Put(bp)
}
