package transport

import "encoding/binary"

// Per-connection wire dictionary. Skewed workloads make data frames
// highly repetitive: the same operator names ride in every tuple record
// and a handful of hot keys dominate the key fields (the Zipf skew that
// motivates Partial Key Grouping). The dictionary interns those strings
// once per connection and replaces every later occurrence with a 1-2
// byte reference.
//
// Sync discipline: the send side assigns ids 0,1,2,... in promotion
// order and announces each entry in-band, inside a frameDict frame
// written on the same connection *before* the first data frame that
// references it. The stream is FIFO, so the receiver always installs an
// entry before seeing a reference to it. Both sides are created with the
// connection and die with it: a reconnect starts from two empty
// dictionaries, which makes desync structurally impossible — there is no
// cross-connection state to disagree about.
const (
	// maxDictEntries bounds one connection's dictionary. Promotion stops
	// when the table is full; later strings ride inline. 4096 entries
	// comfortably hold every operator name plus the hot tail of a skewed
	// key distribution while bounding receiver memory.
	maxDictEntries = 4096

	// maxDictCandidates bounds the "seen once" recency window. When the
	// window fills — a flood of one-off keys — it is cleared wholesale,
	// so only strings that recur within a window earn a dictionary slot.
	// This is what keeps the dictionary biased to *recently hot* keys.
	maxDictCandidates = 8192

	// maxDictString bounds one announced entry at the receiver, and with
	// it the receiver's per-entry memory. It is deliberately wider than
	// what this sender interns (maxKeyString): senders of earlier
	// revisions announce entries up to this size and must keep working.
	maxDictString = 1024

	// maxKeyString is the longest string the wire path treats as a key.
	// The dictionary exists for operator names and the hot keys of a
	// skewed stream, and those are short; a longer string is payload.
	// The sender therefore interns only strings up to this size — a
	// longer one rides inline without a single map probe, and repetition
	// inside a frame is the LZ pass's job — and the decoder copies out
	// only inline strings up to this size one by one, taking longer ones
	// from the frame's arena (see batchDecoder). 64 is about where the
	// inline tag stops fitting one byte.
	maxKeyString = 64
)

// sendDict is the sender half: string -> id, plus the not-yet-announced
// entries. One per outgoing connection; guarded by the peerConn mutex.
type sendDict struct {
	ids        map[string]uint32
	candidates map[string]struct{}

	// pending holds the encoded announcements (the next frameDict
	// payload) for entries promoted since the last flush. It is written
	// to the socket before the data frame whose tuples reference them.
	pending        []byte
	pendingEntries int

	// hits/misses count interned vs inline string fields since the last
	// flush; the flush folds them into the WireMeter in one shot so the
	// per-field hot path touches no atomics.
	hits, misses int
}

func newSendDict() *sendDict {
	return &sendDict{
		ids:        make(map[string]uint32),
		candidates: make(map[string]struct{}),
	}
}

// intern returns the dictionary id for s, promoting s on its second
// sighting within the candidate window. ok is false when s must ride
// inline (not seen twice yet, longer than a key, empty, or the table is
// full).
func (d *sendDict) intern(s string) (uint32, bool) {
	if len(s) == 0 || len(s) > maxKeyString {
		d.misses++
		return 0, false
	}
	if id, ok := d.ids[s]; ok {
		d.hits++
		return id, true
	}
	d.misses++
	if len(d.ids) >= maxDictEntries {
		return 0, false
	}
	if _, seen := d.candidates[s]; !seen {
		if len(d.candidates) >= maxDictCandidates {
			// Recency reset: drop the whole window rather than tracking
			// per-entry ages. One-off keys never survive two windows.
			clear(d.candidates)
		}
		d.candidates[s] = struct{}{}
		return 0, false
	}
	// Second sighting: promote. The announcement is queued now and the
	// current field already rides as a reference — safe because the
	// flush writes the queued frameDict frame before the data frame
	// whose tuples reference it, on the same FIFO stream.
	delete(d.candidates, s)
	id := uint32(len(d.ids))
	d.ids[s] = id
	d.pending = binary.AppendUvarint(d.pending, uint64(id))
	d.pending = binary.AppendUvarint(d.pending, uint64(len(s)))
	d.pending = append(d.pending, s...)
	d.pendingEntries++
	return id, true
}

// recvDict is the receiver half: id -> string, fed by frameDict frames.
// One per inbound connection, touched only by that connection's reader
// goroutine.
type recvDict struct {
	entries []string
}

// apply installs one frameDict payload. Ids must continue the strictly
// sequential assignment the sender uses; anything else means the stream
// is corrupt and the connection must be dropped.
func (d *recvDict) apply(p []byte) (entries int, err error) {
	for len(p) > 0 {
		id, rest, ok := readUvarint(p)
		if !ok || id != uint64(len(d.entries)) || id >= maxDictEntries {
			return entries, errFrameCorrupt
		}
		s, rest, ok := readString(rest)
		if !ok || len(s) == 0 || len(s) > maxDictString {
			return entries, errFrameCorrupt
		}
		d.entries = append(d.entries, s)
		entries++
		p = rest
	}
	return entries, nil
}

// Tagged string encoding, used by every string field of a frameDataDict
// tuple record:
//
//	uvarint (id<<1)|1            — dictionary reference
//	uvarint (len<<1), len bytes  — inline string
//
// The tag costs nothing extra for inline strings shorter than 64 bytes
// (the uvarint still fits one byte) and turns every interned field into
// one or two bytes.

// appendDictString appends s in tagged form, as a reference when the
// dictionary already holds (or just promoted) it.
func appendDictString(buf []byte, s string, d *sendDict) []byte {
	if id, ok := d.intern(s); ok {
		return binary.AppendUvarint(buf, uint64(id)<<1|1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s))<<1)
	return append(buf, s...)
}

// appendTupleDict is appendTuple with every string field in tagged form.
// The record layout and integer fields are identical to the raw
// encoding (see appendTuple).
func appendTupleDict(buf []byte, m *Message, d *sendDict) []byte {
	buf = appendDictString(buf, m.To.Op, d)
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.To.Instance)))
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.From)))
	buf = appendDictString(buf, m.KeyOp, d)
	buf = appendDictString(buf, m.Key, d)
	buf = binary.AppendUvarint(buf, uint64(nonNeg(m.Padding)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Values)))
	for _, v := range m.Values {
		buf = appendDictString(buf, v, d)
	}
	return buf
}

// rawTupleSize is the raw (un-interned, uncompressed) encoded size of m
// — what appendTuple would emit. The compressed send path accumulates it
// per batch so the meter can report a true raw-vs-on-wire ratio without
// encoding everything twice.
func rawTupleSize(m *Message) int {
	n := uvarintSize(uint64(len(m.To.Op))) + len(m.To.Op)
	n += uvarintSize(uint64(nonNeg(m.To.Instance)))
	n += uvarintSize(uint64(nonNeg(m.From)))
	n += uvarintSize(uint64(len(m.KeyOp))) + len(m.KeyOp)
	n += uvarintSize(uint64(len(m.Key))) + len(m.Key)
	n += uvarintSize(uint64(nonNeg(m.Padding)))
	n += uvarintSize(uint64(len(m.Values)))
	for _, v := range m.Values {
		n += uvarintSize(uint64(len(v))) + len(v)
	}
	return n
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendBatchDict decodes a frameDataDict payload against the
// connection's dictionary — the tagged-string sibling of appendBatch,
// decoded by the same batchDecoder under the same corruption discipline.
func appendBatchDict(dst []Message, p []byte, d *recvDict) ([]Message, error) {
	return decodeBatch(dst, p, d)
}
