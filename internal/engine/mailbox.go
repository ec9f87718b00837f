package engine

import (
	"sync"
	"sync/atomic"
)

// mailbox is an unbounded FIFO queue feeding one executor goroutine.
//
// Unlike a bounded channel, an unbounded mailbox cannot deadlock when
// sibling instances exchange MIGRATE messages while their queues are full
// of data (the classic distributed-cycle hazard of the reconfiguration
// protocol). Storm's executors similarly rely on queues with very large
// effective capacity; callers that need flow control bound the number of
// in-flight tuples at the source instead (see Live.MaxInFlight).
//
// Consumers drain in batches: getBatch hands the whole queued slice to
// the executor and installs a recycled buffer for producers to append to,
// so the executor takes one lock per burst of messages instead of one per
// message, and the two backing arrays are reused indefinitely (no
// steady-state allocation).
type mailbox struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	items  []message
	closed bool

	// trackDepth (set once before the executor starts, only when hot-key
	// splitting is enabled) maintains depth: the number of enqueued but
	// not-yet-processed messages, read lock-free by the 2-choice routing
	// step. The unsplit configuration never touches the counter, so the
	// plain hot path pays nothing.
	trackDepth bool
	depth      atomic.Int64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.nonEmp = sync.NewCond(&m.mu)
	return m
}

// put enqueues a message and reports whether it was accepted; messages
// put after close are dropped and reported as rejected so callers can
// roll back any accounting tied to the message.
func (m *mailbox) put(msg message) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	wasEmpty := len(m.items) == 0
	m.items = append(m.items, msg)
	if m.trackDepth {
		m.depth.Add(1)
	}
	m.mu.Unlock()
	// The executor can only be parked when it saw an empty queue, and the
	// append above happened under the lock, so signalling outside the
	// lock cannot lose a wakeup.
	if wasEmpty {
		m.nonEmp.Signal()
	}
	return true
}

// putBatch enqueues a run of messages in order under one lock
// acquisition — the receive-side half of wire batching: a decoded data
// frame of N tuples costs one mailbox lock per target instance instead
// of N. Like put it reports whether the messages were accepted; after
// close the whole run is rejected so callers can settle per-message
// accounting.
func (m *mailbox) putBatch(msgs []message) bool {
	if len(msgs) == 0 {
		return true
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	wasEmpty := len(m.items) == 0
	m.items = append(m.items, msgs...)
	if m.trackDepth {
		m.depth.Add(int64(len(msgs)))
	}
	m.mu.Unlock()
	if wasEmpty {
		m.nonEmp.Signal()
	}
	return true
}

// getBatch blocks until at least one message is queued or the mailbox is
// closed (ok == false once drained). It returns the entire queued slice
// and installs buf (a previously returned, fully consumed batch) as the
// new backing array, recycling allocations between producer and consumer.
func (m *mailbox) getBatch(buf []message) (batch []message, ok bool) {
	m.mu.Lock()
	for len(m.items) == 0 && !m.closed {
		m.nonEmp.Wait()
	}
	if len(m.items) == 0 {
		m.mu.Unlock()
		return nil, false
	}
	batch = m.items
	m.items = buf[:0]
	m.mu.Unlock()
	return batch, true
}

// tryGetBatch is getBatch without the wait: it returns nil where
// getBatch would park (or report the mailbox closed), leaving buf with
// the caller. The executor uses it to learn that it has run out of work
// while tuples it sent still sit in the transport's batches.
func (m *mailbox) tryGetBatch(buf []message) []message {
	m.mu.Lock()
	batch := m.items
	if len(batch) == 0 {
		m.mu.Unlock()
		return nil
	}
	m.items = buf[:0]
	m.mu.Unlock()
	return batch
}

// kill closes the mailbox and discards everything still queued,
// returning the discarded messages so the caller can settle their
// accounting (in-flight counts, discarded control calls). Unlike close, queued
// work is lost rather than drained — this models a server crash, where
// messages sitting in the dead worker's queue never execute.
func (m *mailbox) kill() []message {
	m.mu.Lock()
	m.closed = true
	items := m.items
	m.items = nil
	if m.trackDepth {
		m.depth.Store(0)
	}
	m.nonEmp.Broadcast()
	m.mu.Unlock()
	return items
}

// close wakes the executor and makes it exit once the queue drains.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.nonEmp.Broadcast()
	m.mu.Unlock()
}

// len reports the current queue length.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// queueDepth reports enqueued-but-unprocessed messages, lock-free.
// Always 0 unless trackDepth is set; the executor run loop decrements it
// per processed message.
func (m *mailbox) queueDepth() int64 { return m.depth.Load() }
