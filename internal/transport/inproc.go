package transport

import (
	"context"
	"fmt"
	"sync"
)

// mailKey identifies a message queue position by (source rank, tag).
type mailKey struct {
	src, tag int
}

// mailEntry is one undelivered message: its tag plus the payload.
type mailEntry struct {
	tag     int
	payload []byte
}

// srcQueue is the per-source arrival queue: messages from one peer in
// arrival order. head/entries form a dequeue window over a reusable
// backing array — popping advances head, and the array rewinds to the
// front whenever the queue drains, so the steady state of a pipelined
// collective enqueues and dequeues with zero allocations (the old
// (src,tag)-keyed map allocated a map entry and a one-element slice per
// message, because tag claims never reuse a tag). Receivers match by
// scanning the window for the first entry with their tag, which keeps
// FIFO-per-(src,tag) semantics; the window stays a handful of entries
// deep, bounded by how far one collective can run ahead.
type srcQueue struct {
	head    int
	entries []mailEntry
}

// mailbox is one rank's incoming message store: per-source FIFO queues
// guarded by a mutex/cond pair so receivers can block until a match
// arrives. Unbounded queues model MPI's eager protocol, which is what the
// paper's small sparse messages (2k elements) would use in practice.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues []srcQueue // indexed by source rank
	closed bool
}

func newMailbox(size int) *mailbox {
	mb := &mailbox{queues: make([]srcQueue, size)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) deposit(key mailKey, payload []byte) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	q := &mb.queues[key.src]
	q.entries = append(q.entries, mailEntry{tag: key.tag, payload: payload})
	mb.cond.Broadcast()
	return nil
}

func (mb *mailbox) collect(ctx context.Context, key mailKey) ([]byte, error) {
	// Fast path: the message already arrived (pipelined receives hit this
	// constantly) — pop it without spawning the cancellation watcher.
	mb.mu.Lock()
	if payload, ok := mb.pop(key); ok {
		mb.mu.Unlock()
		return payload, nil
	}
	if mb.closed {
		mb.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		mb.mu.Unlock()
		return nil, err
	}
	mb.mu.Unlock()

	// Slow path: block on the condition variable. The watcher goroutine
	// wakes waiters if the context is cancelled while they block; it is
	// only started for cancellable contexts and exits as soon as collect
	// returns.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				mb.mu.Lock()
				mb.cond.Broadcast()
				mb.mu.Unlock()
			case <-stop:
			}
		}()
	}

	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if payload, ok := mb.pop(key); ok {
			return payload, nil
		}
		if mb.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mb.cond.Wait()
	}
}

// pop dequeues the oldest message from key.src with key.tag; callers
// hold mb.mu. Non-head matches are removed by shifting the prefix up,
// which preserves arrival order for the remaining entries.
func (mb *mailbox) pop(key mailKey) ([]byte, bool) {
	q := &mb.queues[key.src]
	for i := q.head; i < len(q.entries); i++ {
		if q.entries[i].tag != key.tag {
			continue
		}
		payload := q.entries[i].payload
		if i == q.head {
			q.entries[i] = mailEntry{}
			q.head++
		} else {
			copy(q.entries[q.head+1:i+1], q.entries[q.head:i])
			q.entries[q.head] = mailEntry{}
			q.head++
		}
		if q.head == len(q.entries) {
			// Drained: rewind the window so the backing array is reused.
			q.entries = q.entries[:0]
			q.head = 0
		}
		return payload, true
	}
	return nil, false
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// InProcFabric connects n ranks through in-memory mailboxes.
type InProcFabric struct {
	conns []*inProcConn
}

var _ Fabric = (*InProcFabric)(nil)

// NewInProc creates an in-process fabric with n ranks speaking the v1
// sparse wire format.
func NewInProc(n int) (*InProcFabric, error) { return NewInProcWire(n, WireV1) }

// NewInProcWire creates an in-process fabric whose endpoints report the
// given sparse wire-codec version. All ranks live in one process, so
// "negotiation" reduces to configuration — the in-process counterpart of
// the TCP mesh's handshake byte.
func NewInProcWire(n int, wire byte) (*InProcFabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: fabric size %d < 1", n)
	}
	f := &InProcFabric{conns: make([]*inProcConn, n)}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox(n)
	}
	for i := range f.conns {
		f.conns[i] = &inProcConn{rank: i, boxes: boxes, wire: normalizeWire(wire)}
	}
	return f, nil
}

// Conn returns rank's endpoint.
func (f *InProcFabric) Conn(rank int) Conn { return f.conns[rank] }

// Size returns the number of ranks.
func (f *InProcFabric) Size() int { return len(f.conns) }

// Close closes every endpoint.
func (f *InProcFabric) Close() error {
	for _, c := range f.conns {
		c.Close() //nolint:errcheck // Close on inProcConn never fails.
	}
	return nil
}

type inProcConn struct {
	rank  int
	boxes []*mailbox // shared across all conns; boxes[r] is rank r's inbox
	wire  byte
}

var _ Conn = (*inProcConn)(nil)

func (c *inProcConn) Rank() int { return c.rank }
func (c *inProcConn) Size() int { return len(c.boxes) }

// NegotiatedWireVersion implements the wire-version capability.
func (c *inProcConn) NegotiatedWireVersion() byte { return c.wire }

func (c *inProcConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	if err := validatePeer(c.rank, dst, len(c.boxes)); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.boxes[dst].deposit(mailKey{src: c.rank, tag: tag}, payload)
}

func (c *inProcConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	if err := validatePeer(c.rank, src, len(c.boxes)); err != nil {
		return nil, err
	}
	return c.boxes[c.rank].collect(ctx, mailKey{src: src, tag: tag})
}

func (c *inProcConn) Close() error {
	c.boxes[c.rank].close()
	return nil
}
