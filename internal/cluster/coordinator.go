package cluster

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// CoordinatorConfig parameterises a job coordinator.
type CoordinatorConfig struct {
	// World is the worker count the job launches at; epoch 1 is
	// declared the moment the World-th worker joins.
	World int
	// MinWorld aborts the job when failures shrink membership below it.
	// 0 means 1: the job runs down to a single worker.
	MinWorld int
	// MaxWorld bounds elastic growth: late joiners are parked and
	// admitted at epoch boundaries only while the world stays at or
	// below it. 0 means World — recovered workers can rejoin up to the
	// launch size, but the job never grows beyond it unless MaxWorld is
	// raised explicitly.
	MaxWorld int
	// HeartbeatInterval is pushed to every member in the welcome
	// message; 0 means DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a silent member dead; 0 means
	// DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives membership and epoch events.
	Logf func(format string, args ...any)
}

// Coordinator is the rendezvous and membership service of an elastic
// job: workers join by name, the coordinator freezes epoch 1 when the
// configured world size is reached, every detected failure advances the
// job to a new epoch with the survivors re-ranked, and late joiners are
// parked until the next epoch boundary admits them into a grown epoch.
// Every one of those decisions is coordState.apply's; the Coordinator
// only moves bytes between it and the control connections.
type Coordinator struct {
	cfg      CoordinatorConfig
	degraded atomic.Pointer[map[string]int] // the counters after the latest degraded report
}

// NewCoordinator creates a coordinator for a cfg.World-worker job.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("cluster: world size %d < 1", cfg.World)
	}
	// A value below its floor means its default.
	cfg.MinWorld = max(cfg.MinWorld, 1)
	cfg.MaxWorld = cmp.Or(max(cfg.MaxWorld, 0), cfg.World)
	cfg.HeartbeatInterval = cmp.Or(max(cfg.HeartbeatInterval, 0), DefaultHeartbeatInterval)
	cfg.HeartbeatTimeout = cmp.Or(max(cfg.HeartbeatTimeout, 0), DefaultHeartbeatTimeout)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	switch {
	case cfg.MinWorld > cfg.World:
		return nil, fmt.Errorf("cluster: min world %d exceeds world %d", cfg.MinWorld, cfg.World)
	case cfg.MaxWorld < cfg.World:
		return nil, fmt.Errorf("cluster: max world %d below world %d", cfg.MaxWorld, cfg.World)
	case cfg.HeartbeatTimeout <= cfg.HeartbeatInterval:
		return nil, fmt.Errorf("cluster: heartbeat timeout %v must exceed interval %v",
			cfg.HeartbeatTimeout, cfg.HeartbeatInterval)
	}
	return &Coordinator{cfg: cfg}, nil
}

// Degraded returns a copy of the per-member degraded-report counters:
// how many times each worker (by name, across epochs) reported itself
// alive but persistently missing quorum deadlines.
func (c *Coordinator) Degraded() map[string]int {
	if p := c.degraded.Load(); p != nil {
		return maps.Clone(*p)
	}
	return map[string]int{}
}

// posted is an event on its way to Serve's loop; a join brings the
// connection's codec along.
type posted struct {
	ev    event
	codec *connCodec
}

// link is Serve's side of one joined connection. Each write runs in
// its own goroutine that first waits for the link's previous write, so
// a member's messages go out in the order apply emitted them — its
// welcome before any config — and a stalled member delays only itself.
type link struct {
	codec *connCodec
	tail  chan struct{} // closed once the latest queued write is done; nil before the first
}

// Serve runs the coordinator on ln until the job completes (a worker
// reports done and every control connection has drained), the job
// aborts (membership fell below MinWorld, or a worker failed it), or
// ctx is cancelled. The listener is closed on return.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	events := make(chan posted)
	var readers, writers sync.WaitGroup
	var conns []net.Conn // every accepted connection; the accept loop's until it returns
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for id := 1; ; id++ {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: Serve is returning
			}
			conns = append(conns, conn)
			readers.Add(1)
			go func() {
				defer readers.Done()
				c.read(id, conn, events)
			}()
		}
	}()
	// then queues f behind l's earlier writes.
	then := func(l *link, f func()) {
		prev, done := l.tail, make(chan struct{})
		l.tail = done
		writers.Add(1)
		go func() {
			defer writers.Done()
			defer close(done)
			if prev != nil {
				<-prev
			}
			f()
		}()
	}

	// This loop is the one owner of the membership state: it feeds it
	// every event and performs the actions it returns.
	state, links := newCoordState(c.cfg), make(map[int]*link)
	tick := time.NewTicker(c.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	var err error
loop:
	for {
		var p posted
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case now := <-tick.C:
			p.ev = event{now: now, msg: message{T: evTick}}
		case p = <-events:
		}
		if p.codec != nil {
			links[p.ev.id] = &link{codec: p.codec}
		}
		for _, a := range state.apply(p.ev) {
			l := links[a.id]
			switch {
			case a.kind == actFinish:
				err = a.err
				break loop
			case l == nil:
			case a.kind == actSend:
				// A write fails on a broken connection, whose reader
				// then reports the loss.
				then(l, func() { l.codec.write(a.msg) }) //nolint:errcheck // see above
			case a.kind == actClose:
				delete(links, a.id)
				l.codec.conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // bound the farewell
				then(l, func() { l.codec.conn.Close() })                       //nolint:errcheck // its reader reports the end
			}
		}
		if p.ev.msg.T == msgDegraded {
			counts := maps.Clone(state.degraded)
			c.degraded.Store(&counts)
		}
	}
	// The writes an abort queued complete (or time out) before the
	// connections are torn down; what readers post from here on is
	// drained unread.
	go func() {
		for range events {
		}
	}()
	for _, l := range links {
		l.codec.conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // bound the teardown
	}
	writers.Wait()
	ln.Close() //nolint:errcheck // unblock the accept loop
	<-acceptDone
	for _, conn := range conns {
		conn.Close() //nolint:errcheck // teardown path
	}
	readers.Wait()
	close(events)
	return err
}

// read turns connection id's control stream into events — a join
// handshake, then heartbeats, degraded reports, a fail or a leave, each
// carrying the name it joined as — until the stream ends.
func (c *Coordinator) read(id int, conn net.Conn, events chan<- posted) {
	defer conn.Close() //nolint:errcheck // the reader owns teardown
	codec := newCodec(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // bound the join handshake
	first, err := codec.read()
	if err != nil || first.T != msgJoin || first.Name == "" || first.Addr == "" {
		codec.write(&message{T: msgReject, Reason: "malformed join"}) //nolint:errcheck // peer is broken anyway
		return
	}
	events <- posted{event{id: id, now: time.Now(), msg: *first}, codec}
	for {
		conn.SetReadDeadline(time.Now().Add(4 * c.cfg.HeartbeatTimeout)) //nolint:errcheck // catch wedged conns the ticker missed
		msg, err := codec.read()
		ev := event{id: id, now: time.Now(), msg: message{T: evClosed, Reason: "control connection lost"}}
		switch {
		case err != nil:
		case msg.T == msgHeartbeat || msg.T == msgDegraded || msg.T == msgLeave || msg.T == msgFail:
			ev.msg = *msg
		default:
			ev.msg.Reason = fmt.Sprintf("unexpected %q message", msg.T)
		}
		ev.msg.Name = first.Name
		events <- posted{ev: ev}
		if ev.msg.T == evClosed || ev.msg.T == msgLeave {
			return
		}
	}
}
