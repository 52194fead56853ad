package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gtopkssgd/internal/transport"
)

// linkParams is one directed link's α-β shape.
type linkParams struct {
	alpha     time.Duration // per-message latency
	nsPerByte float64       // 1/bandwidth
}

// shaperNet emulates slow links over a fast fabric. It lives in the
// benchmark (not transport.FaultInjector) so that a later rewrite of the
// repository's clocks cannot change what the benchmark measures. Per
// directed link, a send reserves the link for bytes·β after whatever is
// already queued and the message becomes visible α later; the receiver
// sleeps until then. Senders never block and payloads are untouched, so
// results are bit-identical to the unshaped fabric.
type shaperNet struct {
	group        int // ranks r/group share intra links
	intra, inter linkParams
	links        [][]shapedLink // [src][dst]
}

// shapedLink is one directed link's occupancy plus the due times of its
// in-flight messages. Tags never repeat, so the queue is a short FIFO
// window scanned by tag (like the in-process mailbox), not a map.
type shapedLink struct {
	mu   sync.Mutex
	free time.Time
	q    []dueEntry
	head int
}

type dueEntry struct {
	tag int
	due time.Time
}

func newShaperNet(ranks, group int, intra, inter linkParams) *shaperNet {
	n := &shaperNet{group: group, intra: intra, inter: inter, links: make([][]shapedLink, ranks)}
	for i := range n.links {
		n.links[i] = make([]shapedLink, ranks)
	}
	return n
}

func (n *shaperNet) params(src, dst int) linkParams {
	if src/n.group == dst/n.group {
		return n.intra
	}
	return n.inter
}

// stamp queues one due time per frame on link src→dst, in send order.
func (n *shaperNet) stamp(src, dst, tag int, frames ...[]byte) {
	p := n.params(src, dst)
	l := &n.links[src][dst]
	l.mu.Lock()
	now := time.Now()
	if l.free.Before(now) {
		l.free = now
	}
	for _, f := range frames {
		l.free = l.free.Add(time.Duration(float64(len(f)) * p.nsPerByte))
		l.q = append(l.q, dueEntry{tag: tag, due: l.free.Add(p.alpha)})
	}
	l.mu.Unlock()
}

// pop removes and returns the oldest due time queued for (src, dst, tag).
func (n *shaperNet) pop(src, dst, tag int) (time.Time, error) {
	l := &n.links[src][dst]
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.head; i < len(l.q); i++ {
		if l.q[i].tag != tag {
			continue
		}
		due := l.q[i].due
		copy(l.q[l.head+1:i+1], l.q[l.head:i])
		l.head++
		if l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		}
		return due, nil
	}
	return time.Time{}, fmt.Errorf("shaper: no due time for message %d->%d tag %d", src, dst, tag)
}

// shapedConn is one rank's endpoint behind the shaper. It forwards every
// optional transport capability through the exported helpers, so the
// collectives take the same code paths as on the bare fabric.
type shapedConn struct {
	inner transport.Conn
	net   *shaperNet
}

func (c *shapedConn) Rank() int    { return c.inner.Rank() }
func (c *shapedConn) Size() int    { return c.inner.Size() }
func (c *shapedConn) Close() error { return c.inner.Close() }

func (c *shapedConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	c.net.stamp(c.Rank(), dst, tag, payload)
	return c.inner.Send(ctx, dst, tag, payload)
}

func (c *shapedConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	c.net.stamp(c.Rank(), dst, tag, payload)
	return transport.SendPooled(ctx, c.inner, dst, tag, payload)
}

func (c *shapedConn) SendVec(ctx context.Context, dst, tag int, frames [][]byte) error {
	c.net.stamp(c.Rank(), dst, tag, frames...)
	return transport.SendVec(ctx, c.inner, dst, tag, frames)
}

func (c *shapedConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	payload, err := c.inner.Recv(ctx, src, tag)
	if err != nil {
		return nil, err
	}
	due, err := c.net.pop(src, c.Rank(), tag)
	if err != nil {
		return nil, err
	}
	// Link waits are bounded by α + frame·β (milliseconds), so a plain
	// sleep is enough; cancellation is observed by the next fabric call.
	time.Sleep(time.Until(due))
	return payload, nil
}

func (c *shapedConn) SendIsSynchronous() bool     { return transport.SendConsumedOnReturn(c.inner) }
func (c *shapedConn) RecvIsPrivate() bool         { return transport.PrivateRecv(c.inner) }
func (c *shapedConn) NegotiatedWireVersion() byte { return transport.NegotiatedWireVersion(c.inner) }
