package metrics

import (
	"math/bits"
	"sync/atomic"
)

// FlushReason says why a pending data batch was written to the socket.
type FlushReason uint8

const (
	// FlushSize: the batch reached the configured byte threshold.
	FlushSize FlushReason = iota
	// FlushTimer: the batch aged past the configured flush interval.
	FlushTimer
	// FlushControl: a control message (migration, propagation marker,
	// heartbeat) needed the FIFO stream, forcing the batch out first.
	FlushControl
	// FlushClose: the node shut down and drained its pending batch.
	FlushClose
	// FlushIdle: a sender that ran out of work hinted that nothing more
	// is coming, so the batch went out without waiting for the timer.
	FlushIdle
)

// FlushSizeBuckets is the number of log2 buckets in the flush-size
// histogram: bucket 0 counts data frames of up to 64 wire bytes and
// each subsequent bucket doubles the bound, so the last bucket opens at
// 2 MiB. The histogram is how the adaptive flush tuner (and operators)
// see the batch-size distribution rather than just its mean.
const FlushSizeBuckets = 16

// WireStats is a snapshot of the binary wire protocol's counters.
type WireStats struct {
	// FramesSent / TuplesSent / BytesSent cover outgoing data frames
	// (batched tuples); ControlSent / ControlBytesSent cover outgoing
	// control frames (the versioned varint control codec).
	FramesSent       uint64 `json:"frames_sent"`
	TuplesSent       uint64 `json:"tuples_sent"`
	BytesSent        uint64 `json:"bytes_sent"`
	ControlSent      uint64 `json:"control_sent"`
	ControlBytesSent uint64 `json:"control_bytes_sent"`

	// FlushSize/FlushTimer/FlushControl/FlushClose/FlushIdle count
	// data-frame flushes by reason; their sum equals FramesSent.
	FlushSize    uint64 `json:"flush_size"`
	FlushTimer   uint64 `json:"flush_timer"`
	FlushControl uint64 `json:"flush_control"`
	FlushClose   uint64 `json:"flush_close"`
	FlushIdle    uint64 `json:"flush_idle"`

	// TierTuplesSent/TierBytesSent break the sent data frames down by
	// locality tier of the (sender, receiver) pair — same server, same
	// rack, same cluster, inter-cluster — when the transport was built
	// with a PeerTier classifier; all-zero otherwise. Their sums equal
	// TuplesSent/BytesSent then.
	TierTuplesSent [NumTiers]uint64 `json:"tier_tuples_sent"`
	TierBytesSent  [NumTiers]uint64 `json:"tier_bytes_sent"`

	// WritevCalls counts vectored writes handed to the kernel and
	// WritevFrames the frames they carried; WritevFrames >= WritevCalls,
	// and the gap is the syscall batching the per-connection flusher
	// buys (a dictionary announcement, a data frame and a control frame
	// that used to cost three writes now cost one).
	WritevCalls  uint64 `json:"writev_calls"`
	WritevFrames uint64 `json:"writev_frames"`

	// FlushSizeHist is the log2 histogram of sent data-frame wire sizes
	// (bucket i counts frames of up to 64<<i bytes; the last bucket is
	// unbounded).
	FlushSizeHist [FlushSizeBuckets]uint64 `json:"flush_size_hist"`

	// Compression counters. RawBytesSent is what the sent data frames
	// would have cost in the raw (un-interned, uncompressed) encoding,
	// headers included; BytesSent above is what they actually cost on
	// the wire. LZAttempts counts the sent data frames the LZ pass was run
	// on and CompressedFramesSent those of them that went out LZ-wrapped
	// (the rest left in their plain form because compression did not pay),
	// so kept ÷ attempted is the encoder's useful share and the attempts
	// over FramesSent its duty cycle.
	// DictFramesSent/DictEntriesSent/DictBytesSent cover the in-band
	// dictionary announcements; DictHits/DictMisses count string fields
	// encoded as dictionary references vs. inline.
	RawBytesSent         uint64 `json:"raw_bytes_sent"`
	LZAttempts           uint64 `json:"lz_attempts"`
	CompressedFramesSent uint64 `json:"compressed_frames_sent"`
	DictFramesSent       uint64 `json:"dict_frames_sent"`
	DictEntriesSent      uint64 `json:"dict_entries_sent"`
	DictBytesSent        uint64 `json:"dict_bytes_sent"`
	DictHits             uint64 `json:"dict_hits"`
	DictMisses           uint64 `json:"dict_misses"`

	// Receive-side mirrors.
	FramesReceived       uint64 `json:"frames_received"`
	TuplesReceived       uint64 `json:"tuples_received"`
	BytesReceived        uint64 `json:"bytes_received"`
	ControlReceived      uint64 `json:"control_received"`
	ControlBytesRecv     uint64 `json:"control_bytes_received"`
	CompressedFramesRecv uint64 `json:"compressed_frames_received"`
	DictFramesRecv       uint64 `json:"dict_frames_received"`
	DictEntriesRecv      uint64 `json:"dict_entries_received"`

	// EncodeNanos is the cumulative wall time spent binary-encoding
	// tuples into batch buffers.
	EncodeNanos uint64 `json:"encode_nanos"`
}

// TuplesPerFrame is the mean data batch size actually achieved.
func (s WireStats) TuplesPerFrame() float64 {
	if s.FramesSent == 0 {
		return 0
	}
	return float64(s.TuplesSent) / float64(s.FramesSent)
}

// EncodeNsPerTuple is the mean per-tuple binary encode cost.
func (s WireStats) EncodeNsPerTuple() float64 {
	if s.TuplesSent == 0 {
		return 0
	}
	return float64(s.EncodeNanos) / float64(s.TuplesSent)
}

// CompressionRatio is raw-equivalent bytes over actual on-wire bytes
// for the data path (data frames plus the dictionary announcements that
// enable them). 1.0 means compression bought nothing; 2.0 means the
// wire carried half the raw bytes.
func (s WireStats) CompressionRatio() float64 {
	wire := s.BytesSent + s.DictBytesSent
	if wire == 0 {
		return 0
	}
	return float64(s.RawBytesSent) / float64(wire)
}

// WireBytesPerTuple is the mean on-wire cost of one data tuple,
// dictionary announcements amortized in.
func (s WireStats) WireBytesPerTuple() float64 {
	if s.TuplesSent == 0 {
		return 0
	}
	return float64(s.BytesSent+s.DictBytesSent) / float64(s.TuplesSent)
}

// InterClusterBytesPerTuple is the cross-cluster wire volume amortized
// over every sent data tuple — the figure of merit for hierarchical
// partitioning: keeping correlated keys inside one cluster drives it
// toward zero even while total traffic is unchanged. Zero when no
// PeerTier classifier was installed or nothing was sent.
func (s WireStats) InterClusterBytesPerTuple() float64 {
	if s.TuplesSent == 0 {
		return 0
	}
	return float64(s.TierBytesSent[TierRegion]) / float64(s.TuplesSent)
}

// SyscallsPerFlush is the mean number of vectored writes per sent data
// frame — the writev coalescing factor. The pre-writev transport paid
// at least 1.0 (one write per data frame, plus extra writes for
// dictionary and control frames); the flusher pays 1.0 only when every
// flush finds an empty queue, and strictly less whenever frames
// coalesce.
func (s WireStats) SyscallsPerFlush() float64 {
	if s.FramesSent == 0 {
		return 0
	}
	return float64(s.WritevCalls) / float64(s.FramesSent)
}

// FramesPerWritev is the mean number of frames each vectored write
// carried.
func (s WireStats) FramesPerWritev() float64 {
	if s.WritevCalls == 0 {
		return 0
	}
	return float64(s.WritevFrames) / float64(s.WritevCalls)
}

// DictHitRate is the fraction of string fields sent as dictionary
// references rather than inline bytes.
func (s WireStats) DictHitRate() float64 {
	total := s.DictHits + s.DictMisses
	if total == 0 {
		return 0
	}
	return float64(s.DictHits) / float64(total)
}

// WireMeter accumulates the wire protocol's counters. Every method is a
// handful of atomic adds, so the transport can call them from its send
// and receive paths without shared locks. The zero value is ready to
// use.
type WireMeter struct {
	framesSent       atomic.Uint64
	tuplesSent       atomic.Uint64
	bytesSent        atomic.Uint64
	controlSent      atomic.Uint64
	controlBytesSent atomic.Uint64

	flushSize    atomic.Uint64
	flushTimer   atomic.Uint64
	flushControl atomic.Uint64
	flushClose   atomic.Uint64
	flushIdle    atomic.Uint64

	tierTuplesSent [NumTiers]atomic.Uint64
	tierBytesSent  [NumTiers]atomic.Uint64

	writevCalls   atomic.Uint64
	writevFrames  atomic.Uint64
	flushSizeHist [FlushSizeBuckets]atomic.Uint64

	rawBytesSent         atomic.Uint64
	lzAttempts           atomic.Uint64
	compressedFramesSent atomic.Uint64
	dictFramesSent       atomic.Uint64
	dictEntriesSent      atomic.Uint64
	dictBytesSent        atomic.Uint64
	dictHits             atomic.Uint64
	dictMisses           atomic.Uint64

	framesReceived       atomic.Uint64
	tuplesReceived       atomic.Uint64
	bytesReceived        atomic.Uint64
	controlReceived      atomic.Uint64
	controlBytesRecv     atomic.Uint64
	compressedFramesRecv atomic.Uint64
	dictFramesRecv       atomic.Uint64
	dictEntriesRecv      atomic.Uint64

	encodeNanos atomic.Uint64
}

// RecordDataFrameSent folds in one flushed data frame: tuples tuples,
// wireBytes actually written (header included, compressed or not),
// rawBytes the raw-encoding equivalent, flushed for the given reason.
func (m *WireMeter) RecordDataFrameSent(tuples, wireBytes, rawBytes int, compressed bool, reason FlushReason) {
	m.framesSent.Add(1)
	m.tuplesSent.Add(uint64(tuples))
	m.bytesSent.Add(uint64(wireBytes))
	m.rawBytesSent.Add(uint64(rawBytes))
	m.flushSizeHist[flushSizeBucket(wireBytes)].Add(1)
	if compressed {
		m.compressedFramesSent.Add(1)
	}
	switch reason {
	case FlushSize:
		m.flushSize.Add(1)
	case FlushTimer:
		m.flushTimer.Add(1)
	case FlushControl:
		m.flushControl.Add(1)
	case FlushClose:
		m.flushClose.Add(1)
	case FlushIdle:
		m.flushIdle.Add(1)
	}
}

// RecordLZAttempt marks the data frame just recorded as one the LZ pass
// was run on, whether or not its output was kept.
func (m *WireMeter) RecordLZAttempt() {
	m.lzAttempts.Add(1)
}

// RecordTierSent folds one sent data frame into the per-tier
// breakdown; tier indexes the Tier* hierarchy (out-of-range tiers
// count as inter-cluster, the conservative class). Called alongside
// RecordDataFrameSent when the transport knows the peer's tier.
func (m *WireMeter) RecordTierSent(tier, tuples, wireBytes int) {
	if tier < 0 || tier >= NumTiers {
		tier = TierRegion
	}
	m.tierTuplesSent[tier].Add(uint64(tuples))
	m.tierBytesSent[tier].Add(uint64(wireBytes))
}

// RecordDictFrameSent folds in one outgoing dictionary-announce frame
// of entries new entries and bytes total frame bytes.
func (m *WireMeter) RecordDictFrameSent(entries, bytes int) {
	m.dictFramesSent.Add(1)
	m.dictEntriesSent.Add(uint64(entries))
	m.dictBytesSent.Add(uint64(bytes))
}

// RecordDictLookups folds in one batch's dictionary reference (hit) and
// inline (miss) string-field counts.
func (m *WireMeter) RecordDictLookups(hits, misses int) {
	m.dictHits.Add(uint64(hits))
	m.dictMisses.Add(uint64(misses))
}

// RecordControlSent folds in one outgoing control frame.
func (m *WireMeter) RecordControlSent(bytes int) {
	m.controlSent.Add(1)
	m.controlBytesSent.Add(uint64(bytes))
}

// RecordWritev folds in one vectored write carrying frames frames.
func (m *WireMeter) RecordWritev(frames int) {
	m.writevCalls.Add(1)
	m.writevFrames.Add(uint64(frames))
}

// flushSizeBucket maps a data frame's wire size to its log2 histogram
// bucket: 0 for <=64 bytes, doubling per bucket, the last unbounded.
func flushSizeBucket(wireBytes int) int {
	if wireBytes <= 64 {
		return 0
	}
	b := bits.Len64(uint64(wireBytes-1)) - 6
	if b >= FlushSizeBuckets {
		return FlushSizeBuckets - 1
	}
	return b
}

// RecordFrameReceived folds in one decoded data frame.
func (m *WireMeter) RecordFrameReceived(tuples, bytes int) {
	m.framesReceived.Add(1)
	m.tuplesReceived.Add(uint64(tuples))
	m.bytesReceived.Add(uint64(bytes))
}

// RecordControlReceived folds in one decoded control frame.
func (m *WireMeter) RecordControlReceived(bytes int) {
	m.controlReceived.Add(1)
	m.controlBytesRecv.Add(uint64(bytes))
}

// RecordDictFrameReceived folds in one applied dictionary-announce
// frame.
func (m *WireMeter) RecordDictFrameReceived(entries, bytes int) {
	m.dictFramesRecv.Add(1)
	m.dictEntriesRecv.Add(uint64(entries))
	m.bytesReceived.Add(uint64(bytes))
}

// RecordCompressedFrameReceived marks the frame about to be recorded as
// having arrived LZ-wrapped.
func (m *WireMeter) RecordCompressedFrameReceived() {
	m.compressedFramesRecv.Add(1)
}

// RecordEncode folds in the wall time of one tuple's binary encode.
func (m *WireMeter) RecordEncode(nanos int64) {
	if nanos > 0 {
		m.encodeNanos.Add(uint64(nanos))
	}
}

// Snapshot returns the accumulated counters. The fields are read one
// atomic at a time, so a snapshot taken mid-flush may be off by one
// frame — fine for monitoring, which is all this is for.
func (m *WireMeter) Snapshot() WireStats {
	var hist [FlushSizeBuckets]uint64
	for i := range hist {
		hist[i] = m.flushSizeHist[i].Load()
	}
	var tierTuples, tierBytes [NumTiers]uint64
	for i := 0; i < NumTiers; i++ {
		tierTuples[i] = m.tierTuplesSent[i].Load()
		tierBytes[i] = m.tierBytesSent[i].Load()
	}
	return WireStats{
		WritevCalls:    m.writevCalls.Load(),
		WritevFrames:   m.writevFrames.Load(),
		FlushSizeHist:  hist,
		TierTuplesSent: tierTuples,
		TierBytesSent:  tierBytes,

		FramesSent:           m.framesSent.Load(),
		TuplesSent:           m.tuplesSent.Load(),
		BytesSent:            m.bytesSent.Load(),
		ControlSent:          m.controlSent.Load(),
		ControlBytesSent:     m.controlBytesSent.Load(),
		FlushSize:            m.flushSize.Load(),
		FlushTimer:           m.flushTimer.Load(),
		FlushControl:         m.flushControl.Load(),
		FlushClose:           m.flushClose.Load(),
		FlushIdle:            m.flushIdle.Load(),
		RawBytesSent:         m.rawBytesSent.Load(),
		LZAttempts:           m.lzAttempts.Load(),
		CompressedFramesSent: m.compressedFramesSent.Load(),
		DictFramesSent:       m.dictFramesSent.Load(),
		DictEntriesSent:      m.dictEntriesSent.Load(),
		DictBytesSent:        m.dictBytesSent.Load(),
		DictHits:             m.dictHits.Load(),
		DictMisses:           m.dictMisses.Load(),
		FramesReceived:       m.framesReceived.Load(),
		TuplesReceived:       m.tuplesReceived.Load(),
		BytesReceived:        m.bytesReceived.Load(),
		ControlReceived:      m.controlReceived.Load(),
		ControlBytesRecv:     m.controlBytesRecv.Load(),
		CompressedFramesRecv: m.compressedFramesRecv.Load(),
		DictFramesRecv:       m.dictFramesRecv.Load(),
		DictEntriesRecv:      m.dictEntriesRecv.Load(),
		EncodeNanos:          m.encodeNanos.Load(),
	}
}
