package transport

import (
	"context"
	"sync"
	"time"

	"gtopkssgd/internal/prng"
)

// FaultPlan is a seeded, deterministic schedule of link-level faults a
// FaultInjector applies to a wrapped fabric. Faults are keyed by the
// per-link message ordinal, so the n-th frame a link carries always
// suffers the same fate for the same plan — tests and benchmarks replay
// identical straggler schedules regardless of goroutine interleaving.
//
// The zero value injects nothing. A plan afflicts the OUTGOING links of
// the ranks in SlowRanks (every link when SlowRanks is empty); frames on
// afflicted links are delayed by Delay, jittered by ±Jitter·Delay, and
// every StallEvery-th frame additionally pays StallFor. Delays preserve
// per-(src,dst,tag) FIFO order, so a frame a deadline-bounded receiver
// gave up on waits queued for its next receive.
type FaultPlan struct {
	// Seed derives every link's private fault stream.
	Seed uint64
	// Delay is the base delivery delay on afflicted links.
	Delay time.Duration
	// Jitter is the fractional uniform jitter on Delay (0..1).
	Jitter float64
	// StallEvery, when > 0, stalls every StallEvery-th frame of an
	// afflicted link for an extra StallFor.
	StallEvery int
	// StallFor is the extra stall duration.
	StallFor time.Duration
	// SlowRanks lists the ranks whose outgoing links are afflicted; an
	// empty list afflicts every link.
	SlowRanks []int
}

// afflicts reports whether src's outgoing links carry faults.
func (p FaultPlan) afflicts(src int) bool {
	if len(p.SlowRanks) == 0 {
		return true
	}
	for _, r := range p.SlowRanks {
		if r == src {
			return true
		}
	}
	return false
}

// delayFor computes the deterministic delivery delay of the n-th frame
// on one link from the link's private random stream. rng must be
// advanced exactly once per frame, in frame order.
func (p FaultPlan) delayFor(rng *prng.Source, n int) time.Duration {
	d := p.Delay
	if p.Jitter > 0 {
		// One rng draw per frame keeps the stream aligned with the
		// ordinal even when Delay is zero.
		j := 2*rng.Float64() - 1
		d += time.Duration(float64(p.Delay) * p.Jitter * j)
	}
	if p.StallEvery > 0 && n%p.StallEvery == p.StallEvery-1 {
		d += p.StallFor
	}
	if d < 0 {
		d = 0
	}
	return d
}

// faultMsg is one queued frame awaiting delayed delivery.
type faultMsg struct {
	dst, tag  int
	payload   []byte
	deliverAt time.Time
}

// faultLink is one ordered (src→dst) link: a serial delivery worker
// drains its queue in send order, so injected delays never reorder the
// FIFO stream the Conn contract promises.
type faultLink struct {
	rng *prng.Source
	n   int // frame ordinal

	mu    sync.Mutex
	queue []faultMsg
	cond  *sync.Cond
	done  bool
}

func newFaultLink(seed uint64, src, dst int) *faultLink {
	l := &faultLink{rng: prng.New(seed).Split(uint64(src)<<20 | uint64(dst))}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// FaultInjector wraps a Fabric, imposing a FaultPlan on its links. It is
// usable over any inner fabric — the in-process mailboxes and the TCP
// mesh alike — because injection happens strictly above the Conn
// interface: frames are held back and re-sent through the inner endpoint
// by a per-link delivery worker.
type FaultInjector struct {
	inner Fabric
	plan  FaultPlan

	mu     sync.Mutex
	links  map[[2]int]*faultLink
	conns  []*faultConn
	closed bool
	stopc  chan struct{}
	wg     sync.WaitGroup
}

// NewFaultInjector wraps inner with the given fault plan.
func NewFaultInjector(inner Fabric, plan FaultPlan) *FaultInjector {
	f := &FaultInjector{
		inner: inner,
		plan:  plan,
		links: make(map[[2]int]*faultLink),
		stopc: make(chan struct{}),
	}
	f.conns = make([]*faultConn, inner.Size())
	for r := 0; r < inner.Size(); r++ {
		f.conns[r] = &faultConn{fab: f, inner: inner.Conn(r)}
	}
	return f
}

// Size implements Fabric.
func (f *FaultInjector) Size() int { return f.inner.Size() }

// Conn implements Fabric.
func (f *FaultInjector) Conn(rank int) Conn { return f.conns[rank] }

// Close stops every delivery worker (frames still queued are abandoned)
// and closes the inner fabric.
func (f *FaultInjector) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.stopc) // interrupts workers mid-delay
		for _, l := range f.links {
			l.mu.Lock()
			l.done = true
			l.cond.Signal()
			l.mu.Unlock()
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
	return f.inner.Close()
}

// link returns (creating on first use) the delivery link src→dst.
func (f *FaultInjector) link(src, dst int) *faultLink {
	key := [2]int{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.links[key]
	if !ok {
		l = newFaultLink(f.plan.Seed, src, dst)
		f.links[key] = l
		if f.closed {
			l.done = true
		} else {
			f.wg.Add(1)
			go f.deliver(l, f.conns[src].inner)
		}
	}
	return l
}

// deliver is one link's serial worker: it sleeps each frame out to its
// delivery time and forwards it through the inner endpoint, preserving
// queue order.
func (f *FaultInjector) deliver(l *faultLink, inner Conn) {
	defer f.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.done {
			l.cond.Wait()
		}
		if l.done {
			l.mu.Unlock()
			return
		}
		msg := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()

		if wait := time.Until(msg.deliverAt); wait > 0 {
			// An in-flight delay must not outlive Close: the frame in
			// hand is abandoned like the still-queued ones.
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-f.stopc:
				t.Stop()
				return
			}
		}
		// A failed inner send (endpoint closed mid-shutdown) drops the
		// frame — indistinguishable, to the receiver, from loss.
		_ = inner.Send(context.Background(), msg.dst, msg.tag, msg.payload)
	}
}

// faultConn is one rank's endpoint through the injector. Receives pass
// straight through; sends on afflicted links detour through the link's
// delivery queue.
type faultConn struct {
	fab   *FaultInjector
	inner Conn
}

// Rank implements Conn.
func (c *faultConn) Rank() int { return c.inner.Rank() }

// Size implements Conn.
func (c *faultConn) Size() int { return c.inner.Size() }

// Send implements Conn. Frames on unafflicted links pass through
// untouched; afflicted frames are enqueued for delayed delivery and the
// call returns immediately (the sender never blocks on its own slow
// link, so a straggler cannot stall ranks that already moved on).
func (c *faultConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	if err := validatePeer(c.Rank(), dst, c.Size()); err != nil {
		return err
	}
	if !c.fab.plan.afflicts(c.Rank()) {
		return c.inner.Send(ctx, dst, tag, payload)
	}
	l := c.fab.link(c.Rank(), dst)
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return ErrClosed
	}
	delay := c.fab.plan.delayFor(l.rng, l.n)
	l.n++
	l.queue = append(l.queue, faultMsg{dst: dst, tag: tag, payload: payload, deliverAt: time.Now().Add(delay)})
	l.cond.Signal()
	l.mu.Unlock()
	return nil
}

// Recv implements Conn by delegating to the inner endpoint.
func (c *faultConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	return c.inner.Recv(ctx, src, tag)
}

// Close implements Conn by closing the inner endpoint.
func (c *faultConn) Close() error { return c.inner.Close() }

// SendIsSynchronous reports false: afflicted frames are held by the
// injector after Send returns, so senders must never recycle payloads.
func (c *faultConn) SendIsSynchronous() bool { return false }

// RecvIsPrivate forwards the inner endpoint's receive-privacy guarantee.
func (c *faultConn) RecvIsPrivate() bool { return PrivateRecv(c.inner) }

// NegotiatedWireVersion forwards the inner fabric's negotiated codec.
func (c *faultConn) NegotiatedWireVersion() byte { return NegotiatedWireVersion(c.inner) }
