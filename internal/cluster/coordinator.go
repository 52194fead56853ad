package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
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

func (c *CoordinatorConfig) withDefaults() CoordinatorConfig {
	out := *c
	if out.MinWorld < 1 {
		out.MinWorld = 1
	}
	if out.MaxWorld < 1 {
		out.MaxWorld = out.World
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// memberState is the coordinator's view of one worker.
type memberState struct {
	name     string
	addr     string
	codec    *connCodec
	rank     int
	lastHB   time.Time
	parkedAt time.Time  // when a late joiner entered the pending queue
	welcomed bool       // welcome written; configs may follow
	sendMu   sync.Mutex // serialises coordinator→member writes
}

func (m *memberState) send(msg *message) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	return m.codec.write(msg)
}

// Coordinator is the rendezvous and membership service of an elastic
// job: workers join by name, the coordinator freezes epoch 1 when the
// configured world size is reached, every detected failure advances the
// job to a new epoch with the survivors re-ranked, and late joiners are
// parked until the next epoch boundary admits them into a grown epoch.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	members  map[string]*memberState
	pending  map[string]*memberState // parked late joiners, keyed by name
	degraded map[string]int          // degraded reports per member name, across epochs
	// degradedGroups counts degraded reports per hierarchy group index:
	// under the hierarchical quorum a partitioned group's members streak
	// together, and this is where that shows up as one group-granular
	// signal instead of G unrelated slow ranks.
	degradedGroups map[int]int
	epoch          uint64
	started        bool
	done           bool
	abortErr       error
	finished       chan struct{}
}

// NewCoordinator creates a coordinator for a cfg.World-worker job.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("cluster: world size %d < 1", cfg.World)
	}
	full := cfg.withDefaults()
	if full.MinWorld > cfg.World {
		return nil, fmt.Errorf("cluster: min world %d exceeds world %d", full.MinWorld, cfg.World)
	}
	if full.MaxWorld < cfg.World {
		return nil, fmt.Errorf("cluster: max world %d below world %d", full.MaxWorld, cfg.World)
	}
	if full.HeartbeatTimeout <= full.HeartbeatInterval {
		return nil, fmt.Errorf("cluster: heartbeat timeout %v must exceed interval %v",
			full.HeartbeatTimeout, full.HeartbeatInterval)
	}
	return &Coordinator{
		cfg:            full,
		members:        make(map[string]*memberState, cfg.World),
		pending:        make(map[string]*memberState),
		degraded:       make(map[string]int),
		degradedGroups: make(map[int]int),
		finished:       make(chan struct{}),
	}, nil
}

// Degraded returns a copy of the per-member degraded-report counters:
// how many times each worker (by name, across epochs) reported itself
// alive but persistently missing quorum deadlines.
func (c *Coordinator) Degraded() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.degraded))
	for name, n := range c.degraded {
		out[name] = n
	}
	return out
}

// noteDegraded records a member's degraded report. Deliberately NOT a
// membership event: the worker is alive (it just told us so), merely
// slow, and quorum aggregation already contains the damage — reforming
// the epoch would trade bounded staleness for a full restart. group is
// the reporter's hierarchy group index, negative for a flat quorum.
func (c *Coordinator) noteDegraded(m *memberState, reason string, group int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.members[m.name] != m && c.pending[m.name] != m {
		return // superseded zombie; the heartbeat path handles it
	}
	c.degraded[m.name]++
	if group < 0 {
		c.cfg.Logf("cluster: %s reports degraded (%s); %d report(s) so far, epoch unchanged",
			m.name, reason, c.degraded[m.name])
		return
	}
	c.degradedGroups[group]++
	c.cfg.Logf("cluster: %s reports degraded (%s); group %d has %d report(s), %d from this member, epoch unchanged",
		m.name, reason, group, c.degradedGroups[group], c.degraded[m.name])
}

// Epoch returns the most recently declared epoch (0 before the job
// forms).
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Serve runs the coordinator on ln until the job completes (a worker
// reports done and every control connection has drained), the job
// aborts (membership fell below MinWorld), or ctx is cancelled. The
// listener is closed on return.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close() //nolint:errcheck // Serve owns the listener's lifetime

	monitorDone := make(chan struct{})
	go c.monitor(monitorDone)
	defer close(monitorDone)

	var handlers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: Serve is returning
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				c.handleConn(conn)
			}()
		}
	}()

	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case <-c.finished:
		c.mu.Lock()
		err = c.abortErr
		c.mu.Unlock()
	}
	ln.Close() //nolint:errcheck // unblock the accept loop
	c.closeAllConns()
	<-acceptDone
	handlers.Wait()
	return err
}

// handleConn owns one worker's control connection: join handshake, then
// heartbeats and departure.
func (c *Coordinator) handleConn(conn net.Conn) {
	codec := newCodec(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // bound the join handshake
	first, err := codec.read()
	if err != nil || first.T != msgJoin || first.Name == "" || first.Addr == "" {
		codec.write(&message{T: msgReject, Reason: "malformed join"}) //nolint:errcheck // peer is broken anyway
		conn.Close()                                                  //nolint:errcheck // rejected
		return
	}

	m := &memberState{name: first.Name, addr: first.Addr, codec: codec, lastHB: time.Now()}
	parked, reason := c.admit(m)
	if reason != "" {
		codec.write(&message{T: msgReject, Reason: reason}) //nolint:errcheck // best-effort courtesy
		conn.Close()                                        //nolint:errcheck // rejected
		return
	}
	// Welcome seals the heartbeat contract. It is sent before the world
	// can fill (maybeStart below), so a member always reads its welcome
	// before any epoch config. Parked joiners learn they are queued for
	// the next epoch boundary rather than part of the running epoch.
	if err := m.send(&message{
		T:      msgWelcome,
		HBMs:   c.cfg.HeartbeatInterval.Milliseconds(),
		DeadMs: c.cfg.HeartbeatTimeout.Milliseconds(),
		Parked: parked,
	}); err != nil {
		c.reportDown(m, "welcome write failed")
		conn.Close() //nolint:errcheck // already counted as down
		return
	}
	c.maybeStart(m)

	for {
		conn.SetReadDeadline(time.Now().Add(4 * c.cfg.HeartbeatTimeout)) //nolint:errcheck // catch wedged conns the monitor missed
		msg, err := codec.read()
		if err != nil {
			c.reportDown(m, "control connection lost")
			conn.Close() //nolint:errcheck // reader owns teardown
			return
		}
		switch msg.T {
		case msgHeartbeat:
			c.mu.Lock()
			m.lastHB = time.Now()
			stale := c.members[m.name] != m && c.pending[m.name] != m
			c.mu.Unlock()
			if stale {
				// Declared dead earlier (e.g. a heartbeat gap) but still
				// talking: tell it to stop; the job moved on without it.
				m.send(&message{T: msgAbort, Reason: "declared dead; rejoin is not supported"}) //nolint:errcheck // best-effort
				conn.Close()                                                                    //nolint:errcheck // zombie member
				return
			}
		case msgDegraded:
			c.noteDegraded(m, msg.Reason, msg.Group-1)
		case msgLeave:
			c.depart(m, msg.Done)
			conn.Close() //nolint:errcheck // graceful end of control stream
			return
		case msgFail:
			c.mu.Lock()
			if c.members[m.name] == m {
				c.abortLocked(fmt.Errorf("cluster: %s failed the job: %s", m.name, msg.Reason))
			}
			c.mu.Unlock()
		default:
			c.reportDown(m, fmt.Sprintf("unexpected %q message", msg.T))
			conn.Close() //nolint:errcheck // protocol violation
			return
		}
	}
}

// admit registers a joining member, either into the founding membership
// (before epoch 1) or into the pending queue of parked late joiners
// (after it). It returns parked=true for a queued late joiner and a
// non-empty rejection reason when the join is not allowed.
func (c *Coordinator) admit(m *memberState) (parked bool, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.done:
		return false, "job already finished"
	case c.abortErr != nil:
		return false, "job aborted"
	case c.members[m.name] != nil || c.pending[m.name] != nil:
		// A live member's name is its identity across epochs; a joiner
		// reusing one is either a zombie of the original or an operator
		// mistake, and admitting it would corrupt the re-shard mapping.
		return false, fmt.Sprintf("name %q already joined (pick a name no live or parked worker holds)", m.name)
	}
	if !c.started && len(c.members) < c.cfg.World {
		c.members[m.name] = m
		c.cfg.Logf("cluster: %s joined from %s (%d/%d)", m.name, m.addr, len(c.members), c.cfg.World)
		return false, ""
	}
	// Late join (or a pre-start surplus beyond World): park until the
	// next epoch boundary admits it.
	if len(c.members)+len(c.pending) >= c.cfg.MaxWorld {
		return false, fmt.Sprintf("world full (%d live + %d parked at max %d); late join refused",
			len(c.members), len(c.pending), c.cfg.MaxWorld)
	}
	m.parkedAt = time.Now()
	c.pending[m.name] = m
	c.cfg.Logf("cluster: %s join parked from %s (%d live, %d pending, max %d)",
		m.name, m.addr, len(c.members), len(c.pending), c.cfg.MaxWorld)
	return true, ""
}

// maybeStart declares epoch 1 once the world is full and every member
// has been welcomed — the welcomed gate guarantees no member can read
// an epoch config before its welcome, even with concurrent joins.
// Parked joiners only have their welcomed flag recorded here; admission
// happens on the monitor's tick.
func (c *Coordinator) maybeStart(m *memberState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.members[m.name] == m || c.pending[m.name] == m {
		m.welcomed = true
	}
	if c.started || len(c.members) != c.cfg.World {
		return
	}
	for _, mm := range c.members {
		if !mm.welcomed {
			return
		}
	}
	c.started = true
	c.formEpochLocked()
}

// maybeGrowLocked admits every welcomed parked joiner the MaxWorld
// bound allows, in name order — the deterministic boundary — and
// declares the grown epoch. Caller holds c.mu.
func (c *Coordinator) maybeGrowLocked() {
	if !c.started || c.done || c.abortErr != nil || len(c.pending) == 0 {
		return
	}
	var ready []*memberState
	for _, p := range c.pending {
		if p.welcomed {
			ready = append(ready, p)
		}
	}
	n := min(c.cfg.MaxWorld-len(c.members), len(ready))
	if n <= 0 {
		return
	}
	// Admit in name order so which joiners enter a partially-admitting
	// epoch is a pure function of the queue contents, not arrival order.
	sort.Slice(ready, func(i, j int) bool { return ready[i].name < ready[j].name })
	now := time.Now()
	for _, p := range ready[:n] {
		delete(c.pending, p.name)
		c.members[p.name] = p
		c.cfg.Logf("cluster: %s admitted at epoch boundary after %v parked (world %d -> %d)",
			p.name, now.Sub(p.parkedAt).Round(time.Millisecond), len(c.members)-1, len(c.members))
	}
	c.formEpochLocked()
}

// depart handles a graceful leave. The first leave carrying done=true
// marks the job complete, after which departures and failures no longer
// declare epochs.
func (c *Coordinator) depart(m *memberState, jobDone bool) {
	c.mu.Lock()
	if c.members[m.name] == m {
		delete(c.members, m.name)
		c.cfg.Logf("cluster: %s left (done=%v)", m.name, jobDone)
	}
	if c.pending[m.name] == m {
		delete(c.pending, m.name)
		c.cfg.Logf("cluster: parked joiner %s left before admission", m.name)
	}
	if jobDone {
		c.done = true
	}
	c.maybeFinishLocked()
	c.mu.Unlock()
}

// reportDown removes a failed member and, when the job is mid-flight,
// declares the next epoch for the survivors. A dead parked joiner is
// simply dropped from the queue — it never entered an epoch, so nothing
// needs re-forming.
func (c *Coordinator) reportDown(m *memberState, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[m.name] == m {
		delete(c.pending, m.name)
		c.cfg.Logf("cluster: parked joiner %s is down (%s); %d still pending", m.name, reason, len(c.pending))
		return
	}
	if c.members[m.name] != m {
		return // already departed or superseded
	}
	delete(c.members, m.name)
	c.cfg.Logf("cluster: %s is down (%s); %d remain", m.name, reason, len(c.members))
	if c.done || !c.started || c.abortErr != nil {
		c.maybeFinishLocked()
		return
	}
	if len(c.members) < c.cfg.MinWorld {
		c.abortLocked(fmt.Errorf("cluster: %d workers left, below minimum %d", len(c.members), c.cfg.MinWorld))
		return
	}
	c.formEpochLocked()
}

// formEpochLocked declares the next epoch over the current membership.
// Ranks come from the deterministic re-shard rule (Reshard: name order)
// for every epoch. Shrinks behave exactly as they always have —
// removing names from a sorted list keeps it sorted, so survivors keep
// their relative order — and grows slot each admitted joiner at its
// name-order position, shifting later survivors up by the insertion
// count. Caller holds c.mu.
func (c *Coordinator) formEpochLocked() {
	c.epoch++
	memberNames := make([]string, 0, len(c.members))
	for name := range c.members {
		memberNames = append(memberNames, name)
	}
	names := Reshard(memberNames)
	list := make([]*memberState, len(names))
	addrs := make([]string, len(names))
	for rank, name := range names {
		m := c.members[name]
		m.rank = rank
		list[rank] = m
		addrs[rank] = m.addr
	}
	c.cfg.Logf("cluster: epoch %d formed: world %d, members %v", c.epoch, len(list), names)
	epoch := c.epoch
	for _, m := range list {
		msg := &message{T: msgConfig, Config: &Config{
			Epoch: epoch, Rank: m.rank, World: len(list), Names: names, Addrs: addrs,
		}}
		// Sends leave the lock's critical path via goroutines so one
		// stalled member cannot delay the rest of the epoch broadcast; a
		// failed send surfaces as that member's failure.
		go func(m *memberState) {
			if err := m.send(msg); err != nil {
				c.reportDown(m, "config write failed")
			}
		}(m)
	}
}

// abortLocked fails the whole job: every member gets an abort message,
// then Serve returns the error. The farewell writes complete (or time
// out) BEFORE finished is closed, so Serve's teardown cannot cut a
// connection mid-abort. Caller holds c.mu.
func (c *Coordinator) abortLocked(err error) {
	if c.abortErr != nil {
		return
	}
	c.abortErr = err
	c.cfg.Logf("cluster: aborting job: %v", err)
	members := make([]*memberState, 0, len(c.members)+len(c.pending))
	for _, m := range c.members {
		members = append(members, m)
	}
	for _, m := range c.pending {
		members = append(members, m) // parked joiners get the farewell too
	}
	go func() {
		var wg sync.WaitGroup
		for _, m := range members {
			wg.Add(1)
			go func(m *memberState) {
				defer wg.Done()
				m.codec.conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // bound the farewell
				m.send(&message{T: msgAbort, Reason: err.Error()})             //nolint:errcheck // best-effort farewell
				m.codec.conn.Close()                                           //nolint:errcheck // tear down control plane
			}(m)
		}
		wg.Wait()
		close(c.finished)
	}()
}

// maybeFinishLocked completes Serve once the job is done and the last
// control connection has drained. Caller holds c.mu.
func (c *Coordinator) maybeFinishLocked() {
	if c.done && len(c.members) == 0 && c.abortErr == nil {
		select {
		case <-c.finished:
		default:
			close(c.finished)
		}
	}
}

// monitor watches heartbeat deadlines until done is closed.
func (c *Coordinator) monitor(done <-chan struct{}) {
	tick := time.NewTicker(c.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		var dead []*memberState
		if c.started && !c.done && c.abortErr == nil {
			for _, m := range c.members {
				if now.Sub(m.lastHB) > c.cfg.HeartbeatTimeout {
					dead = append(dead, m)
				}
			}
			// Parked joiners heartbeat too: a joiner that died while
			// waiting must never be admitted into an epoch.
			for _, m := range c.pending {
				if now.Sub(m.lastHB) > c.cfg.HeartbeatTimeout {
					dead = append(dead, m)
				}
			}
		}
		c.mu.Unlock()
		for _, m := range dead {
			c.reportDown(m, fmt.Sprintf("missed heartbeats for %v", c.cfg.HeartbeatTimeout))
		}
		// The monitor tick is the epoch boundary at which parked joiners
		// are admitted.
		c.mu.Lock()
		c.maybeGrowLocked()
		c.mu.Unlock()
	}
}

// closeAllConns tears down every remaining control connection,
// including parked joiners still waiting for admission.
func (c *Coordinator) closeAllConns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		m.codec.conn.Close() //nolint:errcheck // teardown path
	}
	for _, m := range c.pending {
		m.codec.conn.Close() //nolint:errcheck // teardown path
	}
}
