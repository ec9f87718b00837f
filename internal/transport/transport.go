// Package transport moves engine messages between servers over real TCP
// connections, using a length-prefixed binary wire protocol with tuple
// batching. The live engine keeps every operator instance in one process
// (like a single Storm worker per server), but with a Fabric attached,
// every cross-server tuple, state migration and propagation marker is
// encoded, written to a localhost socket, read back and decoded —
// exercising the serialization and kernel network path that makes remote
// transfers expensive in the paper's measurements.
//
// Data tuples (KindData) are packed into per-peer batches with a compact
// varint encoding and staged for the connection's flusher once the batch
// reaches FlushBytes, the sender reports it has run out of work
// (FlushIdle), or — the backstop for a sender that does neither — the
// batch ages past FlushInterval: the amortization Storm's batched Netty
// transport applies to the same cost, without its fixed wait. Each
// connection owns one flusher goroutine that drains every staged frame —
// dictionary announcements, data batches, control frames — through a
// single vectored write (net.Buffers, writev on Linux), so a flush that
// used to cost one syscall per frame now hands the whole backlog to the
// kernel at once. Control traffic (state migrations, propagation
// markers, heartbeats) rides the same versioned varint framing as data
// (see ctrl.go); a control Send stages the pending batch first and then
// waits for its own frame to reach the kernel, so control errors stay
// synchronous and the per-pair FIFO order the reconfiguration protocol
// relies on (§3.4) is preserved exactly.
//
// One Node is created per simulated server. Each ordered pair of nodes
// shares one TCP connection, so messages between two servers are
// delivered in FIFO order.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream/internal/metrics"
)

// Kind distinguishes wire message types.
type Kind byte

// Wire message kinds.
const (
	KindData Kind = iota + 1
	KindMigrate
	KindPropagate
	KindHeartbeat
)

// Addr identifies a recipient operator instance.
type Addr struct {
	Op       string
	Instance int
}

// Message is the wire form of one engine message.
type Message struct {
	Kind Kind
	To   Addr

	// From is the sending server's id. Only heartbeats set it today, but
	// any kind may carry it.
	From int

	// KindData
	Values  []string
	Padding int
	KeyOp   string
	Key     string

	// KindMigrate
	MigKey  string
	MigData []byte
	// MigHasData distinguishes "no state for this key" from an
	// empty-but-present snapshot. It rides the wire as an explicit flag
	// bit (ctrl.go), so the two cases stay distinguishable even when
	// the snapshot is zero-length.
	MigHasData bool
}

// Handler consumes messages received by a node. It is called from the
// per-connection reader goroutines and must be safe for concurrent use.
type Handler func(Message)

// BatchHandler consumes one decoded data frame: a batch of KindData
// messages that crossed the wire together, delivered to node (the
// receiving server's id — senders tracking per-destination in-flight
// tuples match it against FlushedHandler's peer). The slice is reused
// for the connection's next frame, so the handler must finish with it —
// or copy the messages — before returning. What the messages point to
// is never reused: their strings and Values may be kept for as long as
// the handler likes, at the price that a kept Values slice or a kept
// string longer than 64 bytes pins the memory of the whole frame it
// arrived in (see batchDecoder). Like Handler it runs on per-connection
// reader goroutines and must be safe for concurrent use.
type BatchHandler func(node int, msgs []Message)

// Compression selects the data-frame encoding (see PROTOCOL.md).
type Compression int

const (
	// CompressionAuto interns repeated short strings through the
	// per-connection dictionary and additionally LZ-compresses a flushed
	// batch when that makes the frame at least an eighth smaller on the
	// wire, trying less and less often on a connection whose batches do
	// not compress (see lzBackoffMin). The default: skewed workloads are
	// what this transport exists for.
	CompressionAuto Compression = iota
	// CompressionOff emits plain frameData frames (the PR 4 encoding).
	CompressionOff
	// CompressionDict interns through the dictionary but never runs the
	// per-frame LZ pass — the configuration to measure the two layers
	// separately.
	CompressionDict
)

// lzMinTry is the smallest batch payload worth an LZ attempt: below it
// the token overhead eats the win and the scan cost is pure loss.
const lzMinTry = 512

// The LZ policy, per connection. An attempt is productive when the
// compressed frame is at least 1/lzMinSaving smaller than the plain one:
// a frame that shrinks by the few bytes its repeated key references
// save costs the sender a scan and the receiver an inflate for nothing,
// so it ships plain. After an unproductive attempt the connection skips
// lzBackoffMin flushes before the next one, and each further
// unproductive attempt in a row doubles the skip up to lzBackoffMax; a
// productive attempt resets it. A stream of incompressible payload thus
// costs one sampled scan (see lz.go) in 257 frames, and a stream that
// turns compressible is noticed within that many.
const (
	lzMinSaving  = 8
	lzBackoffMin = 8
	lzBackoffMax = 256
)

// Default batching parameters (see NodeOptions).
const (
	DefaultFlushBytes    = 64 << 10
	DefaultFlushInterval = time.Millisecond
)

// maxFreeBufs bounds each connection's staging-buffer free list; beyond
// it buffers are left to the garbage collector.
const maxFreeBufs = 8

// NodeOptions tune a node's network behaviour. The zero value makes a
// single no-timeout dial attempt per peer, blocks writes until the
// kernel accepts them, and batches data tuples with the default
// FlushBytes/FlushInterval thresholds.
type NodeOptions struct {
	// WriteTimeout bounds each vectored write the flusher hands to the
	// kernel: if the peer's socket stays unwritable (stalled reader,
	// dead host with a full window) past the deadline, the write fails
	// instead of hanging the flusher. The connection is dropped on any
	// write error — a partially written frame cannot be resumed — so
	// subsequent Sends to that peer fail fast.
	WriteTimeout time.Duration
	// DialTimeout bounds each individual dial attempt in Connect.
	DialTimeout time.Duration
	// DialRetries is the number of additional dial attempts after the
	// first fails, so cluster startup is not order-sensitive when a
	// peer's listener is slow to come up.
	DialRetries int
	// DialBackoff is the delay before the first retry, doubling on each
	// subsequent one (default 10ms when DialRetries > 0).
	DialBackoff time.Duration

	// FlushBytes stages a peer's pending data batch once its encoded
	// payload reaches this many bytes (default DefaultFlushBytes).
	FlushBytes int
	// FlushInterval bounds how long a pending batch waits for more
	// tuples before being staged anyway (default DefaultFlushInterval).
	// It is the backstop for senders that never call FlushIdle: batching
	// delays a tuple by at most this much, and never reorders anything.
	FlushInterval time.Duration

	// Compression selects the data-frame encoding; the zero value
	// (CompressionAuto) enables the per-connection dictionary plus the
	// per-frame LZ pass. See the Compression constants.
	Compression Compression

	// BatchHandler, when set, receives each decoded data frame as one
	// call instead of the per-message Handler — the receive-side half of
	// batching (the engine drains a whole frame into mailboxes in one
	// lock acquisition per target).
	BatchHandler BatchHandler
	// DropHandler, when set, is called with the number of batched
	// KindData messages discarded because their connection broke before
	// they could reach the kernel — whether they were still in the
	// pending batch or already staged in the flusher's writev queue.
	// Senders that count tuples in flight need this to settle their
	// accounting; the callback must be cheap and must not call back
	// into the transport.
	DropHandler func(tuples int)
	// FlushedHandler, when set, is called with the number of KindData
	// tuples in each data frame staged for the flusher, keyed by the
	// destination peer — the sender-side half of exactly-once loss
	// accounting (BatchHandler's node is the matching receive side). If
	// the frame then fails to reach the kernel — the vectored write
	// breaks before it, or the connection is dropped with the frame
	// still queued — it is called again with the negated count before
	// DropHandler reports the loss, so the running sum per peer counts
	// only frames actually handed to the kernel. Called under the
	// peer's batch lock: must be cheap and must not call back into the
	// transport.
	FlushedHandler func(peer, tuples int)
	// Meter, when set, accumulates wire statistics (frames, tuples per
	// frame, bytes, flush reasons, writev batching, encode time) across
	// all of the node's connections.
	Meter *metrics.WireMeter
	// PeerTier, when set alongside Meter, classifies the locality tier
	// of the link from this node to each peer (0 same server, 1 same
	// rack, 2 same cluster across racks, 3 inter-cluster — the indices
	// of the meter's per-tier counters). Each written data frame is then
	// additionally folded into the meter's TierTuplesSent/TierBytesSent
	// breakdown. Must be pure and cheap: it runs on the flusher
	// goroutine once per written frame.
	PeerTier func(from, to int) int
}

// Node is one server's endpoint: a listener plus one outgoing connection
// per peer.
type Node struct {
	id      int
	ln      net.Listener
	handler Handler
	opts    NodeOptions

	// peers is copy-on-write: Send loads it with one atomic read (the
	// per-tuple fast path takes no node-wide lock); Connect, connection
	// drops and Close rebuild it under mu.
	peers atomic.Pointer[map[int]*peerConn]

	mu      sync.Mutex
	inbound []net.Conn

	wg     sync.WaitGroup
	closed bool

	// now is the clock the sampled encode timing reads: time.Now, except
	// in tests that need its readings exact.
	now func() time.Time
}

// setPeer/removePeer rebuild the copy-on-write peer map. Callers must
// hold n.mu.
func (n *Node) setPeerLocked(id int, pc *peerConn) {
	old := *n.peers.Load()
	next := make(map[int]*peerConn, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = pc
	n.peers.Store(&next)
}

func (n *Node) removePeerLocked(id int, pc *peerConn) {
	old := *n.peers.Load()
	if old[id] != pc {
		return
	}
	next := make(map[int]*peerConn, len(old))
	for k, v := range old {
		if k != id {
			next[k] = v
		}
	}
	n.peers.Store(&next)
}

// frameClass says what a staged frame carries, for the flusher's meter
// accounting and loss settlement.
type frameClass uint8

const (
	classData frameClass = iota
	classDict
	classControl
)

// queuedFrame is one complete frame (header stamped) staged for the
// connection's flusher.
type queuedFrame struct {
	buf                  []byte
	class                frameClass
	tuples               int // KindData tuples inside (classData only)
	rawBytes             int // raw-encoding equivalent, for the meter's ratio
	lzTried, compressed  bool
	reason               metrics.FlushReason
	dictEntries          int // classDict: entries announced
	dictHits, dictMisses int // classData: lookup counts for the meter
}

// peerConn serializes staging to one peer and owns the pending data
// batch, the flusher's frame queue, and — with compression enabled —
// the connection's send dictionary and LZ scratch state. All of it is
// created with the connection and discarded with it, so a reconnect
// always starts from empty state on both ends.
//
// Lifecycle of a frame: Send appends tuples into buf under mu; a full,
// idle-hinted or expired batch is staged — header stamped,
// FlushedHandler credited, appended to q — and the flusher is
// signalled. The flusher swaps q out under mu, writes every staged
// frame with one vectored write outside mu, then advances wroteSeq,
// recycles the buffers and stages a batch hinted meanwhile. Control
// senders wait on cond until wroteSeq covers their frame, which keeps
// their error reporting synchronous. Loss settlement on a broken
// connection is exact: whoever transitions broken (flusher write error,
// DropPeer, Close) settles the frames still in q plus the unstaged
// batch, and the flusher settles whatever was in its hands when the
// write failed.
type peerConn struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on q/wroteSeq/broken transitions
	conn net.Conn

	buf    []byte // frameHeaderLen reserved bytes + encoded tuples
	batchN int    // tuples currently in buf
	// encoded counts the tuples ever encoded on this connection; the
	// encode-time meter samples on it (see encodeSampleMask).
	encoded uint64
	timer   *time.Timer
	broken  bool
	// idleHint marks buf as hinted (FlushIdle) while frames were staged
	// or in flight: the flusher stages it when its write returns.
	idleHint bool

	q        []queuedFrame // staged frames awaiting the flusher
	qSpare   []queuedFrame // flusher's previous queue, reused
	qBytes   int           // sum of len(buf) over q
	enqSeq   uint64        // frames ever staged
	wroteSeq uint64        // frames fully handed to the kernel
	writeErr error         // first write error, for control senders

	free [][]byte // recycled staging buffers

	// dict is non-nil when the node interns strings (CompressionAuto or
	// CompressionDict); rawBytes accumulates what the current batch
	// would have cost in the raw encoding, for the meter's ratio.
	dict     *sendDict
	rawBytes int

	// LZ scratch, allocated lazily on the first attempt, and the policy
	// state (see lzBackoffMin): lzDefer counts the flushes still to skip,
	// lzBackoff is the length of the current skip, 0 after a productive
	// attempt.
	lzBuf     []byte
	lzTable   *[1 << lzHashBits]int32
	lzDefer   int
	lzBackoff int
}

// newPeerConn returns the sending state of one fresh connection. The
// caller arms pc.timer.
func newPeerConn(conn net.Conn, opts *NodeOptions) *peerConn {
	pc := &peerConn{
		conn: conn,
		buf:  make([]byte, frameHeaderLen, frameHeaderLen+opts.FlushBytes+4096),
	}
	pc.cond = sync.NewCond(&pc.mu)
	if opts.Compression != CompressionOff {
		pc.dict = newSendDict()
	}
	return pc
}

// takeBufLocked returns a staging buffer with the frame header
// reserved, recycled from the flusher when possible.
func (pc *peerConn) takeBufLocked() []byte {
	for len(pc.free) > 0 {
		b := pc.free[len(pc.free)-1]
		pc.free = pc.free[:len(pc.free)-1]
		if cap(b) >= frameHeaderLen {
			return b[:frameHeaderLen]
		}
	}
	return make([]byte, frameHeaderLen, frameHeaderLen+4096)
}

// recycleBufLocked returns a written frame's buffer to the free list.
func (pc *peerConn) recycleBufLocked(b []byte) {
	if cap(b) > maxPooledBuf || len(pc.free) >= maxFreeBufs {
		return
	}
	pc.free = append(pc.free, b[:0])
}

// enqueueLocked stages one complete frame for the flusher.
func (pc *peerConn) enqueueLocked(f queuedFrame) {
	pc.q = append(pc.q, f)
	pc.qBytes += len(f.buf)
	pc.enqSeq++
	pc.cond.Broadcast()
}

// NewNode starts a node listening on an ephemeral localhost port.
// handler receives every inbound message.
func NewNode(id int, handler Handler) (*Node, error) {
	return NewNodeWith(id, handler, NodeOptions{})
}

// NewNodeWith is NewNode with explicit network options.
func NewNodeWith(id int, handler Handler, opts NodeOptions) (*Node, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = DefaultFlushBytes
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	n := &Node{id: id, ln: ln, handler: handler, opts: opts, now: time.Now}
	empty := make(map[int]*peerConn)
	n.peers.Store(&empty)
	n.wg.Add(1)
	go n.accept()
	return n, nil
}

// ID returns the node's server id.
func (n *Node) ID() int { return n.id }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Connect dials every peer in the map (peer id -> address). Peers may be
// connected before they have connected back; each direction uses its own
// connection. Each dial honours the node's DialTimeout and is retried
// DialRetries times with exponential backoff, so a peer whose listener
// is slow to come up does not fail cluster startup.
func (n *Node) Connect(peers map[int]string) error {
	for id, addr := range peers {
		if id == n.id {
			continue
		}
		conn, err := n.dial(addr)
		if err != nil {
			return fmt.Errorf("transport: dial peer %d: %w", id, err)
		}
		// Re-connecting to an already-connected peer replaces the old
		// connection: sever it first so its pending batch is accounted
		// and its timer disarmed, and so both ends discard their
		// dictionaries together (the new connection starts empty).
		n.DropPeer(id)
		pc := newPeerConn(conn, &n.opts)
		pc.timer = time.AfterFunc(time.Hour, func() { n.flushExpired(id, pc) })
		pc.timer.Stop()
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return errors.New("transport: node is closed")
		}
		n.setPeerLocked(id, pc)
		n.wg.Add(1)
		n.mu.Unlock()
		go n.flusher(id, pc)
	}
	return nil
}

func (n *Node) dial(addr string) (net.Conn, error) {
	backoff := n.opts.DialBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= n.opts.DialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var conn net.Conn
		var err error
		if n.opts.DialTimeout > 0 {
			conn, err = net.DialTimeout("tcp", addr, n.opts.DialTimeout)
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Send hands msg to the given peer. Messages between the same pair of
// nodes are delivered in order.
//
// KindData messages are appended to the peer's pending batch and return
// immediately; the batch is staged for the flusher when it reaches
// FlushBytes, the sender calls FlushIdle, it ages past FlushInterval, or
// a control message needs the stream. Once accepted, a data tuple's fate
// is reported through FlushedHandler/DropHandler, never through a later
// Send's error — Send fails only when the connection is already gone.
// All other kinds are control traffic: they stage the pending batch,
// then wait until their own frame has been handed to the kernel, so
// their errors are synchronous.
//
// With a WriteTimeout configured, a flusher write that cannot make
// progress within the deadline fails — and the connection is dropped,
// since a truncated frame cannot carry further messages — so senders
// are never blocked forever on a stalled peer.
func (n *Node) Send(peer int, msg Message) error {
	pc := (*n.peers.Load())[peer]
	if pc == nil {
		return fmt.Errorf("transport: node %d has no connection to peer %d", n.id, peer)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.broken {
		return fmt.Errorf("transport: node %d: connection to peer %d is dropped", n.id, peer)
	}
	if msg.Kind == KindData {
		return n.sendDataLocked(peer, pc, &msg)
	}
	return n.sendControlLocked(peer, pc, &msg)
}

// encodeSampleMask makes encode-time metering sample 1-in-64 tuples:
// two clock reads per tuple would cost more than the encode itself, so
// the sampled duration is recorded with 64× weight instead. The
// resulting EncodeNanos is an estimate — fine for a monitoring counter.
// The 1-in-64 runs over the connection's tuples, not the batch's: small
// batches would otherwise have their first tuple timed every time and
// their encode cost overstated by up to 64×.
const encodeSampleMask = 63

// sendDataLocked encodes one tuple into the peer's batch, staging on
// the size threshold and arming the flush timer when the batch opens.
// With a dictionary attached the tuple is encoded in tagged form and
// the raw-equivalent size accumulated for the meter's ratio. When the
// flusher's queue is saturated the sender waits here — backpressure,
// not loss.
func (n *Node) sendDataLocked(peer int, pc *peerConn, msg *Message) error {
	if m := n.opts.Meter; m != nil && pc.encoded&encodeSampleMask == 0 {
		start := n.now()
		pc.appendLocked(msg)
		m.RecordEncode(int64(n.now().Sub(start)) * (encodeSampleMask + 1))
	} else {
		pc.appendLocked(msg)
	}
	pc.encoded++
	pc.batchN++
	flushBytes := n.opts.FlushBytes
	if len(pc.buf)-frameHeaderLen >= flushBytes {
		if err := n.stageBatchLocked(peer, pc, metrics.FlushSize); err != nil {
			return err
		}
		// Backpressure: the queue bound is a small multiple of the flush
		// threshold, so a sender that outruns the kernel parks here until
		// the flusher drains (or the connection breaks, which settles the
		// staged tuples through DropHandler).
		limit := 4 * flushBytes
		if limit < 256<<10 {
			limit = 256 << 10
		}
		for pc.qBytes > limit && !pc.broken {
			pc.cond.Wait()
		}
		return nil
	}
	if pc.batchN == 1 {
		pc.timer.Reset(n.opts.FlushInterval)
	}
	return nil
}

// sendControlLocked stages one binary control frame — after the pending
// data batch, preserving the connection's FIFO order — and waits until
// the flusher has handed it to the kernel, so the caller observes write
// failures synchronously.
func (n *Node) sendControlLocked(peer int, pc *peerConn, msg *Message) error {
	if err := n.stageBatchLocked(peer, pc, metrics.FlushControl); err != nil {
		return err
	}
	b := pc.takeBufLocked()
	b = appendControl(b, msg)
	if len(b)-frameHeaderLen > maxFramePayload {
		pc.recycleBufLocked(b)
		return fmt.Errorf("transport: control frame for %d exceeds %d bytes", peer, maxFramePayload)
	}
	putFrameHeader(b, frameControlV2)
	pc.enqueueLocked(queuedFrame{buf: b, class: classControl})
	seq := pc.enqSeq
	for !pc.broken && pc.wroteSeq < seq {
		pc.cond.Wait()
	}
	if pc.wroteSeq >= seq {
		return nil
	}
	err := pc.writeErr
	if err == nil {
		err = errors.New("connection dropped")
	}
	return fmt.Errorf("transport: send to %d: %w", peer, err)
}

// appendLocked encodes one tuple into the batch buffer, raw or
// dictionary-tagged depending on the connection's mode.
func (pc *peerConn) appendLocked(msg *Message) {
	if pc.dict != nil {
		pc.buf = appendTupleDict(pc.buf, msg, pc.dict)
		pc.rawBytes += rawTupleSize(msg)
		return
	}
	pc.buf = appendTuple(pc.buf, msg)
}

// stageBatchLocked hands the peer's pending batch to the flusher as one
// data frame — preceded by a dictionary-announce frame when tuples in
// the batch promoted new entries, and wrapped in a compressed frame
// when an LZ attempt was due and productive (see lzBackoffMin). The
// tuples are credited to FlushedHandler here, before the flusher can
// possibly write them (the receiver decrements on delivery, so the
// credit must come first); a later write failure takes the credit back
// and reports the loss.
func (n *Node) stageBatchLocked(peer int, pc *peerConn, reason metrics.FlushReason) error {
	if pc.batchN == 0 {
		return nil
	}
	// The batch leaves now, whatever asked for it: nothing is left for the
	// backstop timer or a pending idle hint to do.
	pc.timer.Stop()
	pc.idleHint = false
	if len(pc.buf)-frameHeaderLen > maxFramePayload {
		// Unreachable with sane FlushBytes; guard anyway so a giant tuple
		// can never emit a frame the receiver is obliged to reject.
		err := fmt.Errorf("transport: batch for %d exceeds %d bytes", peer, maxFramePayload)
		n.breakConnLocked(peer, pc, err)
		return err
	}
	tuples := pc.batchN
	rawBytes := len(pc.buf) // raw-equivalent frame size, header included
	typ := frameData
	var dictHits, dictMisses int
	if pc.dict != nil {
		typ = frameDataDict
		rawBytes = frameHeaderLen + pc.rawBytes
		dictHits, dictMisses = pc.dict.hits, pc.dict.misses
		pc.dict.hits, pc.dict.misses = 0, 0
		// Entries promoted by this batch must be installed at the receiver
		// before the batch's references to them decode: announce first, on
		// the same FIFO stream (the flusher writes the queue in order).
		if pc.dict.pendingEntries > 0 {
			entries := pc.dict.pendingEntries
			db := pc.takeBufLocked()
			db = append(db, pc.dict.pending...)
			putFrameHeader(db, frameDict)
			pc.dict.pending = pc.dict.pending[:0]
			pc.dict.pendingEntries = 0
			pc.enqueueLocked(queuedFrame{buf: db, class: classDict, dictEntries: entries})
		}
	}
	frame := pc.buf
	var lzTried, compressed bool
	if n.opts.Compression == CompressionAuto && len(pc.buf)-frameHeaderLen >= lzMinTry {
		if pc.lzDefer > 0 {
			pc.lzDefer--
		} else {
			lzTried = true
			if pc.lzTable == nil {
				pc.lzTable = new([1 << lzHashBits]int32)
			}
			if pc.lzBuf == nil {
				// The last attempt's buffer left with its frame; written
				// frames' buffers come back through the free list.
				pc.lzBuf = pc.takeBufLocked()
			}
			payload := pc.buf[frameHeaderLen:]
			lz := append(pc.lzBuf[:frameHeaderLen], typ)
			lz = binary.AppendUvarint(lz, uint64(len(payload)))
			lz = lzAppendCompress(lz, payload, pc.lzTable)
			pc.lzBuf = lz
			if len(lz) <= len(pc.buf)-len(pc.buf)/lzMinSaving {
				putFrameHeader(lz, frameCompressed)
				frame = lz
				compressed = true
				pc.lzBackoff = 0
			} else {
				pc.lzBackoff = min(max(2*pc.lzBackoff, lzBackoffMin), lzBackoffMax)
				pc.lzDefer = pc.lzBackoff
			}
		}
	}
	if compressed {
		// The queue takes ownership of the LZ buffer; the batch buffer is
		// immediately reusable.
		pc.lzBuf = nil
		pc.buf = pc.buf[:frameHeaderLen]
	} else {
		putFrameHeader(frame, typ)
		pc.buf = pc.takeBufLocked()
	}
	pc.batchN = 0
	pc.rawBytes = 0
	if n.opts.FlushedHandler != nil {
		n.opts.FlushedHandler(peer, tuples)
	}
	pc.enqueueLocked(queuedFrame{
		buf:        frame,
		class:      classData,
		tuples:     tuples,
		rawBytes:   rawBytes,
		lzTried:    lzTried,
		compressed: compressed,
		reason:     reason,
		dictHits:   dictHits,
		dictMisses: dictMisses,
	})
	return nil
}

// flushExpired is the FlushInterval timer callback: stage whatever the
// batch holds. No socket write happens on the timer goroutine — the
// flusher owns all I/O.
func (n *Node) flushExpired(peer int, pc *peerConn) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.broken {
		return
	}
	_ = n.stageBatchLocked(peer, pc, metrics.FlushTimer)
}

// FlushIdle is a sender's hint that it has run out of work, so the
// tuples it batched for peer have nothing more to wait for. On a
// connection with nothing staged or in flight the batch is staged at
// once; otherwise it is only marked, and the flusher stages it when its
// current write returns. The hint is thereby clocked by the socket: at
// most one idle-flushed frame is outstanding per connection however
// often senders go idle, and what arrives during a write leaves as one
// frame after it. No-op on an empty batch or a missing connection.
func (n *Node) FlushIdle(peer int) {
	pc := (*n.peers.Load())[peer]
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.broken || pc.batchN == 0 {
		return
	}
	if pc.enqSeq != pc.wroteSeq {
		pc.idleHint = true
		return
	}
	_ = n.stageBatchLocked(peer, pc, metrics.FlushIdle)
}

// flusher is the connection's single writer: it drains every staged
// frame through one vectored write (writev), so a backlog of
// dictionary announcements, data batches and control frames reaches
// the kernel as one syscall instead of one per frame. It exits when
// the connection breaks — including by its own write failing.
func (n *Node) flusher(peer int, pc *peerConn) {
	defer n.wg.Done()
	var (
		batch   []queuedFrame
		scratch [][]byte
	)
	for {
		pc.mu.Lock()
		for len(pc.q) == 0 && !pc.broken {
			pc.cond.Wait()
		}
		if pc.broken {
			pc.mu.Unlock()
			return
		}
		batch, pc.q = pc.q, pc.qSpare[:0]
		pc.qSpare = batch
		pc.qBytes = 0
		conn := pc.conn
		// Senders parked on the queue bound can refill while the write is
		// in flight.
		pc.cond.Broadcast()
		pc.mu.Unlock()

		scratch = scratch[:0]
		for i := range batch {
			scratch = append(scratch, batch[i].buf)
		}
		wv := net.Buffers(scratch)
		if wt := n.opts.WriteTimeout; wt > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(wt))
		}
		written, err := wv.WriteTo(conn)
		if n.opts.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Time{})
		}

		if err == nil {
			n.recordWritten(peer, batch, len(batch))
			pc.mu.Lock()
			pc.wroteSeq += uint64(len(batch))
			for i := range batch {
				pc.recycleBufLocked(batch[i].buf)
			}
			if pc.idleHint {
				_ = n.stageBatchLocked(peer, pc, metrics.FlushIdle)
			}
			pc.cond.Broadcast()
			pc.mu.Unlock()
			continue
		}

		// The stream is dead mid-queue. Frames fully handed to the kernel
		// count as written (their FlushedHandler credit stands); the
		// partially-written frame and everything after it is lost and must
		// be settled exactly once — these frames are in our hands, not in
		// pc.q, so whoever broke the connection (possibly us, below) has
		// not already counted them.
		k := 0
		rem := written
		for k < len(batch) && rem >= int64(len(batch[k].buf)) {
			rem -= int64(len(batch[k].buf))
			k++
		}
		n.recordWritten(peer, batch[:k], len(batch[:k]))
		pc.mu.Lock()
		pc.wroteSeq += uint64(k)
		if !pc.broken {
			n.breakConnLocked(peer, pc, err)
		} else if pc.writeErr == nil {
			pc.writeErr = err
		}
		n.settleFramesLocked(peer, batch[k:])
		pc.cond.Broadcast()
		pc.mu.Unlock()
		return
	}
}

// recordWritten folds written frames into the meter: one writev call
// covering frames frames, then the per-frame counters (with the data
// frames broken down by the peer link's locality tier when the node
// has a PeerTier classifier).
func (n *Node) recordWritten(peer int, frames []queuedFrame, count int) {
	m := n.opts.Meter
	if m == nil {
		return
	}
	if count > 0 {
		m.RecordWritev(count)
	}
	tier := -1
	if n.opts.PeerTier != nil {
		tier = n.opts.PeerTier(n.id, peer)
	}
	for i := range frames {
		f := &frames[i]
		switch f.class {
		case classData:
			m.RecordDataFrameSent(f.tuples, len(f.buf), f.rawBytes, f.compressed, f.reason)
			if f.lzTried {
				m.RecordLZAttempt()
			}
			if tier >= 0 {
				m.RecordTierSent(tier, f.tuples, len(f.buf))
			}
			if f.dictHits|f.dictMisses != 0 {
				m.RecordDictLookups(f.dictHits, f.dictMisses)
			}
		case classDict:
			m.RecordDictFrameSent(f.dictEntries, len(f.buf))
		case classControl:
			m.RecordControlSent(len(f.buf))
		}
	}
}

// settleFramesLocked accounts for staged frames that will never reach
// the kernel: each data frame's FlushedHandler credit is taken back,
// then the total tuple loss is reported once through DropHandler — the
// same negate-then-drop order a failed single-frame flush always used.
func (n *Node) settleFramesLocked(peer int, frames []queuedFrame) {
	lost := 0
	for i := range frames {
		if frames[i].class == classData && frames[i].tuples > 0 {
			if n.opts.FlushedHandler != nil {
				n.opts.FlushedHandler(peer, -frames[i].tuples)
			}
			lost += frames[i].tuples
		}
	}
	if lost > 0 && n.opts.DropHandler != nil {
		n.opts.DropHandler(lost)
	}
}

// breakConnLocked is the single transition to the broken state: it
// settles every frame still in the queue and the unstaged batch,
// closes the socket and forgets the peer. Exactly-once settlement
// hinges on this running once — every caller checks pc.broken first —
// and on the flusher settling its own in-hand frames separately.
// Callers hold pc.mu.
func (n *Node) breakConnLocked(peer int, pc *peerConn, err error) {
	pc.broken = true
	if pc.writeErr == nil {
		pc.writeErr = err
	}
	pc.timer.Stop()
	q := pc.q
	pc.q = nil
	pc.qBytes = 0
	n.settleFramesLocked(peer, q)
	if pc.batchN > 0 {
		tuples := pc.batchN
		pc.buf = pc.buf[:frameHeaderLen]
		pc.batchN = 0
		pc.rawBytes = 0
		if n.opts.DropHandler != nil {
			n.opts.DropHandler(tuples)
		}
	}
	_ = pc.conn.Close()
	n.mu.Lock()
	n.removePeerLocked(peer, pc)
	n.mu.Unlock()
	pc.cond.Broadcast()
}

// DropPeer severs this node's outgoing connection to peer without
// waiting for a write to fail. Tuples batched or staged but not yet
// handed to the kernel are reported through DropHandler — exactly once,
// with staged frames' FlushedHandler credits taken back first, matching
// the accounting a failed flush would have done. Used when a peer is
// known dead (the engine's KillServer) so loss is settled
// deterministically, and before a Connect that re-dials the same peer.
// Safe to call when no connection to peer exists.
func (n *Node) DropPeer(peer int) {
	pc := (*n.peers.Load())[peer]
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.broken {
		return
	}
	n.breakConnLocked(peer, pc, errors.New("peer dropped"))
}

// DetachPeer cleanly removes this node's outgoing connection to peer:
// the pending batch is staged and the flusher drained first, so —
// unlike DropPeer — a detach from a live, draining peer loses nothing.
// The listener stays up and a later Connect re-establishes the link
// (fresh dictionaries both ends). Used when a peer leaves the cluster
// administratively (the engine's DecommissionServer) rather than by
// dying. Safe to call when no connection to peer exists. A flush
// failure is accounted through DropHandler exactly as a failed data
// flush is.
func (n *Node) DetachPeer(peer int) {
	pc := (*n.peers.Load())[peer]
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.broken {
		return
	}
	_ = n.stageBatchLocked(peer, pc, metrics.FlushClose)
	for !pc.broken && pc.wroteSeq < pc.enqSeq {
		pc.cond.Wait()
	}
	if !pc.broken { // a failed drain already dropped the connection
		n.breakConnLocked(peer, pc, errors.New("peer detached"))
	}
}

func (n *Node) accept() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound = append(n.inbound, conn)
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serve(conn)
	}
}

// serve decodes frames off one inbound connection. A frame is delivered
// only after it has been read and decoded completely; any read or
// decode error — including a torn frame from a peer that died mid-write
// — drops the connection without delivering anything partial. The
// receive dictionary lives and dies with the connection, mirroring the
// sender's: a reconnecting peer starts announcing from id 0 again. The
// pooled read buffers are recycled as soon as a frame is decoded:
// decoded messages never point into them (see batchDecoder).
func (n *Node) serve(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	hdr := make([]byte, frameHeaderLen)
	var (
		batch []Message
		rd    recvDict
	)
	for {
		typ, bp, err := readFrame(br, hdr)
		if err != nil {
			return // connection closed, torn frame, or corrupt stream
		}
		wireBytes := frameHeaderLen + len(*bp)
		payload := *bp
		var rawBp *[]byte
		if typ == frameCompressed {
			typ, rawBp, err = unwrapCompressed(payload)
			if err != nil {
				putBuf(bp)
				return
			}
			payload = *rawBp
			if m := n.opts.Meter; m != nil {
				m.RecordCompressedFrameReceived()
			}
		}
		switch typ {
		case frameData, frameDataDict:
			if typ == frameData {
				batch, err = appendBatch(batch[:0], payload)
			} else {
				batch, err = appendBatchDict(batch[:0], payload, &rd)
			}
			if err != nil {
				break
			}
			if m := n.opts.Meter; m != nil {
				m.RecordFrameReceived(len(batch), wireBytes)
			}
			if n.opts.BatchHandler != nil {
				n.opts.BatchHandler(n.id, batch)
			} else {
				for i := range batch {
					n.handler(batch[i])
				}
			}
		case frameDict:
			var entries int
			if entries, err = rd.apply(payload); err != nil {
				break
			}
			if m := n.opts.Meter; m != nil {
				m.RecordDictFrameReceived(entries, wireBytes)
			}
		case frameControlV2:
			var msg Message
			if msg, err = decodeControl(payload); err != nil {
				break
			}
			if m := n.opts.Meter; m != nil {
				m.RecordControlReceived(wireBytes)
			}
			n.handler(msg)
		}
		if rawBp != nil {
			putBuf(rawBp)
		}
		putBuf(bp)
		if err != nil {
			return
		}
	}
}

// Close stops accepting, drains and closes every outgoing connection
// and waits for the reader and flusher goroutines to exit. Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := *n.peers.Load()
	inbound := n.inbound
	empty := make(map[int]*peerConn)
	n.peers.Store(&empty)
	n.inbound = nil
	n.mu.Unlock()

	_ = n.ln.Close()
	for peer, pc := range peers {
		pc.mu.Lock()
		if !pc.broken {
			// Best-effort drain of the pending batch and staged queue; a
			// write failure is accounted through DropHandler by the flusher
			// and wakes this wait via the broken flag.
			_ = n.stageBatchLocked(peer, pc, metrics.FlushClose)
			for !pc.broken && pc.wroteSeq < pc.enqSeq {
				pc.cond.Wait()
			}
			if !pc.broken {
				n.breakConnLocked(peer, pc, errors.New("node closed"))
			}
		}
		pc.mu.Unlock()
	}
	for _, conn := range inbound {
		_ = conn.Close()
	}
	n.wg.Wait()
}

// Fabric is a fully connected set of nodes, one per server.
type Fabric struct {
	nodes []*Node
	addrs map[int]string
}

// NewFabric starts servers nodes and fully connects them. handler
// receives every message, along with the id of the receiving server.
func NewFabric(servers int, handler func(server int, msg Message)) (*Fabric, error) {
	return NewFabricWith(servers, handler, NodeOptions{})
}

// NewFabricWith is NewFabric with explicit per-node network options
// (including, when set, the shared BatchHandler/DropHandler/Meter).
func NewFabricWith(servers int, handler func(server int, msg Message), opts NodeOptions) (*Fabric, error) {
	if servers < 1 {
		return nil, errors.New("transport: fabric needs at least one server")
	}
	f := &Fabric{nodes: make([]*Node, servers), addrs: make(map[int]string, servers)}
	for i := 0; i < servers; i++ {
		id := i
		node, err := NewNodeWith(id, func(msg Message) { handler(id, msg) }, opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.nodes[i] = node
		f.addrs[i] = node.Addr()
	}
	for _, node := range f.nodes {
		if err := node.Connect(f.addrs); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Send routes msg from one server to another.
func (f *Fabric) Send(from, to int, msg Message) error {
	if from < 0 || from >= len(f.nodes) {
		return fmt.Errorf("transport: invalid sender %d", from)
	}
	return f.nodes[from].Send(to, msg)
}

// FlushIdle passes a sender's out-of-work hint for the tuples batched
// from one server to another (see Node.FlushIdle).
func (f *Fabric) FlushIdle(from, to int) {
	if from >= 0 && from < len(f.nodes) {
		f.nodes[from].FlushIdle(to)
	}
}

// DropPeer severs every surviving node's outgoing connection to server,
// reporting batched and queue-staged tuples through DropHandler. Called
// before CloseNode when a server is killed: afterwards no survivor can
// flush another frame to it, which pins the flushed-but-undelivered
// count for exact loss settlement.
func (f *Fabric) DropPeer(server int) {
	for i, node := range f.nodes {
		if node != nil && i != server {
			node.DropPeer(server)
		}
	}
}

// CloseNode shuts down a single server's node — its listener, outgoing
// connections and inbound readers — leaving the rest of the fabric
// running. Used to simulate a server crash: survivors' subsequent sends
// to the dead node fail instead of being delivered. Safe to call more
// than once.
func (f *Fabric) CloseNode(server int) {
	if server < 0 || server >= len(f.nodes) {
		return
	}
	if node := f.nodes[server]; node != nil {
		node.Close()
	}
}

// Attach (re)connects server to every listed peer in both directions,
// using the addresses recorded at fabric construction. Peers whose
// nodes are closed are skipped. Used when a server joins the elastic
// membership: its listener has been up the whole time, only the
// outgoing connections need (re-)dialing.
func (f *Fabric) Attach(server int, peers []int) error {
	if server < 0 || server >= len(f.nodes) || f.nodes[server] == nil {
		return fmt.Errorf("transport: attach unknown server %d", server)
	}
	want := make(map[int]string, len(peers))
	for _, p := range peers {
		if p == server || p < 0 || p >= len(f.nodes) || f.nodes[p] == nil {
			continue
		}
		want[p] = f.addrs[p]
	}
	if err := f.nodes[server].Connect(want); err != nil {
		return err
	}
	back := map[int]string{server: f.addrs[server]}
	for p := range want {
		if err := f.nodes[p].Connect(back); err != nil {
			return err
		}
	}
	return nil
}

// Detach cleanly disconnects server from every other node in both
// directions, draining pending batches first (DetachPeer), so a detach
// from a live peer loses nothing. Listeners stay up; a later Attach
// re-establishes the connections.
func (f *Fabric) Detach(server int) {
	if server < 0 || server >= len(f.nodes) || f.nodes[server] == nil {
		return
	}
	for i, node := range f.nodes {
		if node == nil || i == server {
			continue
		}
		node.DetachPeer(server)
		f.nodes[server].DetachPeer(i)
	}
}

// Servers returns the number of nodes.
func (f *Fabric) Servers() int { return len(f.nodes) }

// Close shuts every node down.
func (f *Fabric) Close() {
	for _, node := range f.nodes {
		if node != nil {
			node.Close()
		}
	}
}
