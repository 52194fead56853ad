package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Member is a worker's control-plane client: it joins a coordinator by
// name, streams heartbeats, and surfaces each declared epoch Config.
// The zero value is not usable; construct with Join.
type Member struct {
	codec *connCodec

	hbInterval time.Duration
	hbTimeout  time.Duration
	parked     bool // welcome arrived with the parked marker

	sendMu sync.Mutex // serialises member→coordinator writes

	mu      sync.Mutex
	latest  *Config
	changed chan struct{} // closed and replaced on every new config
	err     error
	leaving bool
	done    chan struct{}
	doneOne sync.Once

	hbPaused atomic.Bool // test hook, see pauseHeartbeats
}

// Join connects to the coordinator at coordAddr and registers name with
// the given data-plane address. It returns once the coordinator has
// welcomed the member; epoch configurations arrive asynchronously via
// Config.
func Join(ctx context.Context, coordAddr, name, dataAddr string) (_ *Member, err error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: empty member name")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial coordinator %s: %w", coordAddr, err)
	}
	defer func() {
		if err != nil {
			conn.Close() //nolint:errcheck // the handshake failed
		}
	}()
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Now().Add(10 * time.Second)
	}
	conn.SetDeadline(dl) //nolint:errcheck // bound the join handshake
	m := &Member{codec: newCodec(conn), changed: make(chan struct{}), done: make(chan struct{})}
	if err := m.codec.write(&message{T: msgJoin, Name: name, Addr: dataAddr}); err != nil {
		return nil, fmt.Errorf("cluster: join: %w", err)
	}
	resp, err := m.codec.read()
	switch {
	case err != nil:
		return nil, fmt.Errorf("cluster: join %q: %w", name, err)
	case resp.T == msgReject:
		return nil, fmt.Errorf("cluster: join %q rejected: %s", name, resp.Reason)
	case resp.T != msgWelcome:
		return nil, fmt.Errorf("cluster: join %q: unexpected %q response", name, resp.T)
	}
	// A heartbeat value below its floor means its default.
	m.parked = resp.Parked
	m.hbInterval = cmp.Or(max(time.Duration(resp.HBMs)*time.Millisecond, 0), DefaultHeartbeatInterval)
	m.hbTimeout = cmp.Or(max(time.Duration(resp.DeadMs)*time.Millisecond, 0), DefaultHeartbeatTimeout)
	conn.SetDeadline(time.Time{}) //nolint:errcheck // handshake complete

	go m.readLoop()
	go m.heartbeatLoop()
	return m, nil
}

// Parked reports whether the coordinator parked this join: the member
// was accepted into a running job and will receive its first epoch
// configuration when the coordinator admits it at an epoch boundary.
func (m *Member) Parked() bool { return m.parked }

// HeartbeatTimeout returns the coordinator's failure-detection window —
// the longest a worker should wait for a post-failure reconfiguration
// before concluding something else is wrong.
func (m *Member) HeartbeatTimeout() time.Duration { return m.hbTimeout }

// Config returns the latest epoch configuration (nil before the first)
// and a channel that is closed when a newer one arrives.
func (m *Member) Config() (*Config, <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest, m.changed
}

// Done is closed when the control plane terminates: job abort,
// connection loss, or Leave/Close.
func (m *Member) Done() <-chan struct{} { return m.done }

// Err reports why the control plane terminated (nil after a clean
// Leave).
func (m *Member) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// ReportDegradedGroup tells the coordinator this worker is alive but
// persistently missing quorum deadlines. Informational only: the
// coordinator logs and counts the report without reconfiguring the job.
// The reporter's hierarchy group index rides along (pass a negative
// group for a flat quorum). Under
// the hierarchical quorum a wholly partitioned group misses the leader
// deadline as a unit, so every member streaks — and reports — together;
// the group index lets the coordinator aggregate those reports
// group-granularly instead of as unrelated slow ranks.
func (m *Member) ReportDegradedGroup(reason string, group int) error {
	wire := 0
	if group >= 0 {
		wire = group + 1
	}
	return m.send(&message{T: msgDegraded, Reason: reason, Group: wire})
}

// Fail tells the coordinator this worker hit a failure no
// reconfiguration can mend, with reason as the verdict; the coordinator
// aborts the job for every member.
func (m *Member) Fail(reason string) error { return m.send(&message{T: msgFail, Reason: reason}) }

// send writes one message to the coordinator.
func (m *Member) send(msg *message) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	return m.codec.write(msg)
}

// Leave departs gracefully. jobDone=true tells the coordinator the
// whole job completed, which disarms failure detection for the
// remaining members' own departures.
func (m *Member) Leave(jobDone bool) error {
	m.mu.Lock()
	m.leaving = true
	m.mu.Unlock()
	err := m.send(&message{T: msgLeave, Done: jobDone})
	m.Close()
	return err
}

// Close abruptly severs the control plane without a leave message —
// from the coordinator's perspective this is indistinguishable from the
// process being SIGKILLed.
func (m *Member) Close() error {
	err := m.codec.conn.Close()
	m.finish(nil)
	return err
}

// finish records the terminal error (first writer wins) and closes done.
func (m *Member) finish(err error) {
	m.mu.Lock()
	if m.err == nil && err != nil && !m.leaving {
		m.err = err
	}
	m.mu.Unlock()
	m.doneOne.Do(func() { close(m.done) })
}

// readLoop consumes coordinator messages until the connection ends.
func (m *Member) readLoop() {
	for {
		msg, err := m.codec.read()
		if err != nil {
			m.finish(fmt.Errorf("cluster: control connection lost: %w", err))
			return
		}
		switch msg.T {
		case msgConfig:
			if err := validateConfig(msg.Config); err != nil {
				m.finish(err)
				return
			}
			m.mu.Lock()
			if m.latest == nil || msg.Config.Epoch > m.latest.Epoch {
				m.latest = msg.Config
				close(m.changed)
				m.changed = make(chan struct{})
			}
			m.mu.Unlock()
		case msgAbort:
			m.finish(fmt.Errorf("cluster: job aborted by coordinator: %s", msg.Reason))
			return
		default:
			m.finish(fmt.Errorf("cluster: unexpected %q message from coordinator", msg.T))
			return
		}
	}
}

// heartbeatLoop proves liveness every hbInterval until stopped.
func (m *Member) heartbeatLoop() {
	tick := time.NewTicker(m.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
		}
		if m.hbPaused.Load() {
			continue
		}
		if err := m.send(&message{T: msgHeartbeat}); err != nil {
			m.finish(fmt.Errorf("cluster: heartbeat write: %w", err))
			return
		}
	}
}

// pauseHeartbeats is a test hook that silences the heartbeat stream
// while keeping the control connection open — simulating a network
// partition rather than a process death.
func (m *Member) pauseHeartbeats(paused bool) { m.hbPaused.Store(paused) }
