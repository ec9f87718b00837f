package transport

import (
	"encoding/binary"
	"errors"
)

// A small LZ77 pass for frame payloads, stdlib-only (ROADMAP rules out
// pulling in snappy/lz4; compress/flate's Huffman stage costs too much
// on a 1ms-flush hot path). The format is the LZ4 block idea reduced to
// what a 64KiB batch needs:
//
//	token: 1 byte — hi nibble literal-length code, lo nibble match-length code
//	[literal-length extension: uvarint, present when hi nibble == 15]
//	literals: that many raw bytes
//	match offset: 2 bytes LE, 1..65535 back from the write position
//	[match-length extension: uvarint, present when lo nibble == 15]
//
// Match length is code+4 (minimum match lzMinMatch). The final sequence
// carries literals only: it ends the block without an offset, signalled
// by offset bytes being absent because the input is exhausted.
//
// The compressor is greedy with a single 8K-entry hash table and, like
// LZ4 and Snappy, accelerates over misses: every 64 consecutive failed
// probes widen the step to the next probe by one byte, and a match
// resets it. Compressible bytes are therefore scanned position by
// position while a long incompressible run is only sampled — a 64KiB
// frame of random payload costs some 2,900 probes instead of 65,536. An
// attempt is still not free (the table is cleared and the literals are
// copied even when nothing matched), so the sender decides per
// connection how often to make one: see lzBackoffMin in transport.go.
const (
	lzMinMatch  = 4
	lzMaxOffset = 65535
	lzHashBits  = 13

	// lzSkipShift sets the miss acceleration: the probe step is
	// 1 + misses>>lzSkipShift, LZ4's default of 64 probes per stride.
	lzSkipShift = 6
)

var errLZCorrupt = errors.New("transport: corrupt compressed payload")

func lzHash(v uint32) uint32 {
	// Knuth multiplicative hashing on the 4 candidate bytes.
	return (v * 2654435761) >> (32 - lzHashBits)
}

func lzLoad32(p []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(p[i:])
}

// lzAppendCompress appends the compressed form of src to dst and
// returns it. The caller compares lengths and keeps the raw payload
// when compression did not pay.
func lzAppendCompress(dst, src []byte, table *[1 << lzHashBits]int32) []byte {
	// Positions stored +1 so the zero value means "empty"; stale entries
	// from a previous frame are validated by byte comparison anyway, but
	// a stale position can exceed the current src, so each frame clears
	// the table. 32KiB memset per frame is ~1µs — noise next to the scan.
	clear(table[:])

	var (
		pos     int // next byte to process
		litFrom int // start of the unemitted literal run
		misses  int // consecutive failed probes since the last match
	)
	for pos+4 <= len(src) { // lzLoad32 needs 4 readable bytes at pos
		cur := lzLoad32(src, pos)
		h := lzHash(cur)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand > lzMaxOffset || lzLoad32(src, cand) != cur {
			pos += 1 + misses>>lzSkipShift
			misses++
			continue
		}
		misses = 0
		// Extend the match forward.
		matchLen := lzMinMatch
		for pos+matchLen < len(src) && src[cand+matchLen] == src[pos+matchLen] {
			matchLen++
		}
		dst = lzAppendSeq(dst, src[litFrom:pos], pos-cand, matchLen)
		pos += matchLen
		litFrom = pos
	}
	// Trailing literals (no offset follows: decoder sees input end).
	if litFrom < len(src) || len(src) == 0 {
		dst = lzAppendSeq(dst, src[litFrom:], 0, 0)
	}
	return dst
}

// lzAppendSeq emits one sequence. matchLen == 0 means the terminal
// literals-only sequence.
func lzAppendSeq(dst, lits []byte, offset, matchLen int) []byte {
	litCode := len(lits)
	if litCode > 14 {
		litCode = 15
	}
	matchCode := 0
	if matchLen > 0 {
		matchCode = matchLen - lzMinMatch
		if matchCode > 14 {
			matchCode = 15
		}
	}
	dst = append(dst, byte(litCode<<4|matchCode))
	if litCode == 15 {
		dst = binary.AppendUvarint(dst, uint64(len(lits)-15))
	}
	dst = append(dst, lits...)
	if matchLen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if matchCode == 15 {
		dst = binary.AppendUvarint(dst, uint64(matchLen-lzMinMatch-15))
	}
	return dst
}

// lzAppendDecompress appends the decompressed form of src to dst,
// failing if the output would exceed limit bytes (the declared raw
// length, which readFrame has already bounded by maxFramePayload) or if
// any sequence is malformed. Matches may overlap their own output —
// copied byte-by-byte for exactly that reason.
func lzAppendDecompress(dst, src []byte, limit int) ([]byte, error) {
	base := len(dst)
	for len(src) > 0 {
		token := src[0]
		src = src[1:]
		litLen := int(token >> 4)
		if litLen == 15 {
			ext, n := binary.Uvarint(src)
			if n <= 0 || ext > uint64(limit) {
				return dst, errLZCorrupt
			}
			litLen += int(ext)
			src = src[n:]
		}
		if litLen > len(src) || len(dst)-base+litLen > limit {
			return dst, errLZCorrupt
		}
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		if len(src) == 0 {
			return dst, nil // terminal literals-only sequence
		}
		if len(src) < 2 {
			return dst, errLZCorrupt
		}
		offset := int(src[0]) | int(src[1])<<8
		src = src[2:]
		matchLen := int(token&0x0f) + lzMinMatch
		if matchLen == 15+lzMinMatch {
			ext, n := binary.Uvarint(src)
			if n <= 0 || ext > uint64(limit) {
				return dst, errLZCorrupt
			}
			matchLen += int(ext)
			src = src[n:]
		}
		if offset == 0 || offset > len(dst)-base || len(dst)-base+matchLen > limit {
			return dst, errLZCorrupt
		}
		from := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	return dst, nil
}
