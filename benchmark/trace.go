package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/transport"
)

// span is one traced interval. Spans are taken from outside the program:
// around the calls the benchmark makes into each layer (trainer phases
// via the phase hook, the decomposed step's layer calls, and every
// Send/SendVec/Recv crossing the transport.Conn boundary). IDs are
// per-rank indexes; the written trace qualifies them with the rank.
type span struct {
	name   string
	step   int32
	parent int32 // index of the causing span on the same rank; -1 = root
	start  int64 // ns since the run's trace base
	end    int64
	peer   int32 // transport spans: remote rank, else -1
	tag    int32
	bytes  int32
	frames int32 // messages carried (SendVec > 1)
}

// Span names.
const (
	spanStep      = "step"
	spanCompute   = "core.compute"
	spanAggregate = "core.aggregate"
	spanUpdate    = "core.update"
	spanSelect    = "core.select"
	spanAllreduce = "core.allreduce"
	spanPutBack   = "core.putback"
	spanScatter   = "core.scatter"
	spanSend      = "transport.send"
	spanRecv      = "transport.recv"
)

// rankTracer records one rank's spans in memory. Bucket goroutines of
// the streamed pipeline send concurrently with the trainer goroutine, so
// appends take a (normally uncontended) mutex.
type rankTracer struct {
	base time.Time
	rank int

	mu       sync.Mutex
	spans    []span
	step     int32
	parent   int32     // span transport calls are parented to in the current step
	msgBytes []float64 // size of every message sent (for the median)

	// capture, when set, makes Recv keep private copies of the frames it
	// returns (rank 0, last traced step) for the codec replay.
	capture  atomic.Bool
	captured [][]byte
}

func newRankTracer(base time.Time, rank, steps int) *rankTracer {
	t := &rankTracer{base: base, rank: rank, parent: -1}
	t.spans = make([]span, 0, steps*24)
	t.msgBytes = make([]float64, 0, steps*16)
	return t
}

func (t *rankTracer) now() int64 { return int64(time.Since(t.base)) }

// add appends a span and returns its index.
func (t *rankTracer) add(s span) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// open appends a span that starts now under the current parent; close
// stamps its end. Used by the decomposed step around each layer call.
func (t *rankTracer) open(name string, parent int32) int32 {
	return t.add(span{name: name, step: t.step, parent: parent, start: t.now(), peer: -1})
}

func (t *rankTracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// setParent redirects subsequent transport spans of this rank.
func (t *rankTracer) setParent(id int32) {
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
}

// startStep labels subsequent spans with the step (decomposed runs,
// which open their own layer spans).
func (t *rankTracer) startStep(step int) {
	t.mu.Lock()
	t.step, t.parent = int32(step), -1
	t.mu.Unlock()
}

// beginStep additionally reserves the step's aggregate span before the
// trainer runs it, so transport spans recorded during the step can name
// their parent; phases fills it in when the trainer's hook reports the
// durations.
func (t *rankTracer) beginStep(step int) {
	t.mu.Lock()
	t.step = int32(step)
	t.spans = append(t.spans, span{name: spanAggregate, step: t.step, parent: -1, peer: -1})
	t.parent = int32(len(t.spans) - 1)
	t.mu.Unlock()
}

// phases converts the trainer's phase durations into spans. The hook
// fires right after the update, so the phases are laid out backwards
// from "now" (the trainer measures them back to back).
func (t *rankTracer) phases(pt core.PhaseTimes) {
	end := t.now()
	upd := end - int64(pt.Update)
	agg := upd - int64(pt.Aggregate)
	cmp := agg - int64(pt.Compute)
	t.mu.Lock()
	aggID := t.parent
	t.spans = append(t.spans, span{name: spanStep, step: t.step, parent: -1, start: cmp, end: end, peer: -1})
	stepID := int32(len(t.spans) - 1)
	t.spans[aggID].start, t.spans[aggID].end, t.spans[aggID].parent = agg, upd, stepID
	t.spans = append(t.spans,
		span{name: spanCompute, step: t.step, parent: stepID, start: cmp, end: agg, peer: -1},
		span{name: spanUpdate, step: t.step, parent: stepID, start: upd, end: end, peer: -1})
	t.mu.Unlock()
}

func (t *rankTracer) transport(name string, peer, tag, bytes, frames int, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, step: t.step, parent: t.parent, start: start, end: end,
		peer: int32(peer), tag: int32(tag), bytes: int32(bytes), frames: int32(frames)})
	t.mu.Unlock()
}

// tracedConn wraps a transport.Conn with a span per Send/SendVec/Recv.
// Like shapedConn it forwards every optional capability through the
// exported transport helpers, so the traced run takes the same paths.
type tracedConn struct {
	inner transport.Conn
	rec   *rankTracer
}

func (c *tracedConn) Rank() int    { return c.inner.Rank() }
func (c *tracedConn) Size() int    { return c.inner.Size() }
func (c *tracedConn) Close() error { return c.inner.Close() }

func (c *tracedConn) noteSizes(frames ...[]byte) int {
	total := 0
	c.rec.mu.Lock()
	for _, f := range frames {
		total += len(f)
		c.rec.msgBytes = append(c.rec.msgBytes, float64(len(f)))
	}
	c.rec.mu.Unlock()
	return total
}

func (c *tracedConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	n := c.noteSizes(payload)
	start := c.rec.now()
	err := c.inner.Send(ctx, dst, tag, payload)
	c.rec.transport(spanSend, dst, tag, n, 1, start)
	return err
}

func (c *tracedConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	n := c.noteSizes(payload) // the buffer is relinquished by the call
	start := c.rec.now()
	err := transport.SendPooled(ctx, c.inner, dst, tag, payload)
	c.rec.transport(spanSend, dst, tag, n, 1, start)
	return err
}

func (c *tracedConn) SendVec(ctx context.Context, dst, tag int, frames [][]byte) error {
	n := c.noteSizes(frames...)
	count := len(frames)
	start := c.rec.now()
	err := transport.SendVec(ctx, c.inner, dst, tag, frames)
	c.rec.transport(spanSend, dst, tag, n, count, start)
	return err
}

func (c *tracedConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	start := c.rec.now()
	payload, err := c.inner.Recv(ctx, src, tag)
	c.rec.transport(spanRecv, src, tag, len(payload), 1, start)
	if err == nil && c.rec.capture.Load() {
		c.rec.mu.Lock()
		c.rec.captured = append(c.rec.captured, append([]byte(nil), payload...))
		c.rec.mu.Unlock()
	}
	return payload, err
}

func (c *tracedConn) SendIsSynchronous() bool     { return transport.SendConsumedOnReturn(c.inner) }
func (c *tracedConn) RecvIsPrivate() bool         { return transport.PrivateRecv(c.inner) }
func (c *tracedConn) NegotiatedWireVersion() byte { return transport.NegotiatedWireVersion(c.inner) }

// transportTotals sums one rank's transport spans over steps >= from.
type transportTotals struct {
	sendNS, recvNS int64
	msgsSent       int
}

func (t *rankTracer) totals(from int) transportTotals {
	var tt transportTotals
	for i := range t.spans {
		s := &t.spans[i]
		if int(s.step) < from {
			continue
		}
		switch s.name {
		case spanSend:
			tt.sendNS += s.end - s.start
			tt.msgsSent += int(s.frames)
		case spanRecv:
			tt.recvNS += s.end - s.start
		}
	}
	return tt
}

// spanMeanMS returns the mean duration in ms per step of the named span
// over steps >= from, and the mean time its child spans cover (the
// difference is the span's self time).
func (t *rankTracer) spanMeanMS(name string, from, steps int) (mean, childMS float64) {
	var total, child int64
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case int(s.step) < from:
		case s.name == name:
			total += s.end - s.start
		case s.parent >= 0 && t.spans[s.parent].name == name:
			child += s.end - s.start
		}
	}
	return float64(total) / 1e6 / float64(steps), float64(child) / 1e6 / float64(steps)
}

// hopsInStep returns the longest send→recv chain of one step across all
// ranks: a message's depth is one more than its sender's depth when it
// was sent, and receiving it raises the receiver's depth to at least
// that. Events replay in one global order — a send when it started, a
// receive when it returned — which the shared monotonic clock makes
// causal. With concurrent set, a rank runs several sub-communicators at
// once (the bucketed pipeline); their chains are independent, so they
// are told apart by tag (forked tag spans lie more than 2^21 apart) and
// the longest one is reported.
func hopsInStep(tracers []*rankTracer, step int, concurrent bool) int {
	type event struct {
		send            bool
		rank, peer, tag int
		frames          int
		at              int64
	}
	var events []event
	for r, t := range tracers {
		for i := range t.spans {
			s := &t.spans[i]
			switch {
			case int(s.step) != step:
			case s.name == spanSend:
				events = append(events, event{send: true, rank: r, peer: int(s.peer), tag: int(s.tag), frames: int(s.frames), at: s.start})
			case s.name == spanRecv:
				events = append(events, event{rank: r, peer: int(s.peer), tag: int(s.tag), at: s.end})
			}
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })
	type stream struct{ rank, span int }
	type link struct{ src, dst, tag int }
	depth := map[stream]int{}
	inflight := map[link][]int{} // queued message depths per (src, dst, tag)
	longest := 0
	for _, e := range events {
		at := stream{rank: e.rank}
		if concurrent {
			at.span = e.tag >> 21
		}
		if e.send {
			l := link{e.rank, e.peer, e.tag}
			for f := 0; f < e.frames; f++ {
				inflight[l] = append(inflight[l], depth[at]+1)
			}
			continue
		}
		l := link{e.peer, e.rank, e.tag}
		if q := inflight[l]; len(q) > 0 {
			depth[at] = max(depth[at], q[0])
			longest = max(longest, depth[at])
			inflight[l] = q[1:]
		}
	}
	return longest
}

// writeTrace dumps every rank's spans as one JSON array.
func writeTrace(path string, tracers []*rankTracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "[")
	first := true
	for _, t := range tracers {
		for i := range t.spans {
			s := &t.spans[i]
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"r%d.%d"`, t.rank, s.parent)
			}
			fmt.Fprintf(w, "\n{\"id\":\"r%d.%d\",\"name\":%q,\"rank\":%d,\"step\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s",
				t.rank, i, s.name, t.rank, s.step, s.start, s.end, parent)
			if s.peer >= 0 {
				fmt.Fprintf(w, ",\"peer\":%d,\"tag\":%d,\"bytes\":%d,\"frames\":%d", s.peer, s.tag, s.bytes, s.frames)
			}
			fmt.Fprint(w, "}")
		}
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one to report
		return err
	}
	return f.Close()
}
