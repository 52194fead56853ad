package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// The control plane speaks newline-delimited JSON over a single TCP
// connection per worker. The volume is tiny (joins, heartbeats, epoch
// configurations), so a self-describing text protocol wins over another
// binary framing: `nc` against a coordinator prints a readable event
// stream, which matters when debugging a wedged 32-node job at 2 a.m.

// Message type tags on the control-plane wire.
const (
	// msgJoin (worker→coordinator) announces a worker: Name + Addr.
	msgJoin = "join"
	// msgHeartbeat (worker→coordinator) proves liveness.
	msgHeartbeat = "hb"
	// msgLeave (worker→coordinator) departs; Done marks job completion.
	msgLeave = "leave"
	// msgDegraded (worker→coordinator) reports that this worker is alive
	// but persistently missing quorum deadlines (Reason says why). Purely
	// informational: the coordinator logs and counts it WITHOUT reforming
	// the epoch — a slow rank under quorum aggregation costs staleness,
	// not correctness, so tearing the job down would be strictly worse.
	msgDegraded = "degraded"
	// msgWelcome (coordinator→worker) accepts a join and sets the
	// heartbeat contract.
	msgWelcome = "welcome"
	// msgReject (coordinator→worker) refuses a join with a Reason.
	msgReject = "reject"
	// msgConfig (coordinator→worker) declares an epoch configuration.
	msgConfig = "config"
	// msgAbort (coordinator→worker) kills the job with a Reason.
	msgAbort = "abort"
)

// message is the single envelope exchanged on the control plane; the T
// tag selects which optional fields are meaningful.
type message struct {
	T      string `json:"t"`
	Name   string `json:"name,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Done   bool   `json:"done,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Group, on degraded messages, carries the reporter's hierarchy group
	// index PLUS ONE (0 means "flat quorum, no group"), so group-granular
	// telemetry — a whole partitioned group streaking together — survives
	// the wire without a mandatory field on every other message.
	Group  int   `json:"group,omitempty"`
	HBMs   int64 `json:"hb_ms,omitempty"`
	DeadMs int64 `json:"dead_ms,omitempty"`
	// Parked marks a welcome to a late joiner: the join is accepted but
	// the worker is held outside the running epoch until the autoscaler
	// admits it at the next epoch boundary (its first config message).
	Parked bool    `json:"parked,omitempty"`
	Config *Config `json:"config,omitempty"`
}

// Config freezes one epoch's membership: who participates, in which
// rank order, and where each rank's data plane listens. Every worker in
// the epoch receives the same Names/Addrs/World and its own Rank.
type Config struct {
	// Epoch numbers configurations monotonically from 1.
	Epoch uint64 `json:"epoch"`
	// Rank is the receiving worker's rank in [0, World).
	Rank int `json:"rank"`
	// World is the epoch's worker count.
	World int `json:"world"`
	// Names lists member names indexed by rank.
	Names []string `json:"names"`
	// Addrs lists data-plane host:port addresses indexed by rank.
	Addrs []string `json:"addrs"`
}

// connCodec wraps one control connection with line-oriented JSON
// encode/decode. Writes are mutex-free: each side has exactly one
// writer goroutine per message source, and the coordinator serialises
// per-member writes through memberState.send.
type connCodec struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func newCodec(conn net.Conn) *connCodec {
	return &connCodec{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (c *connCodec) write(m *message) error {
	return c.enc.Encode(m)
}

func (c *connCodec) read() (*message, error) {
	var m message
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// validateConfig rejects a malformed epoch configuration before the
// runtime acts on it.
func validateConfig(cfg *Config) error {
	if cfg == nil {
		return fmt.Errorf("cluster: config message without config body")
	}
	if cfg.World < 1 || len(cfg.Names) != cfg.World || len(cfg.Addrs) != cfg.World {
		return fmt.Errorf("cluster: inconsistent config: world %d, %d names, %d addrs",
			cfg.World, len(cfg.Names), len(cfg.Addrs))
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return fmt.Errorf("cluster: rank %d out of range [0,%d)", cfg.Rank, cfg.World)
	}
	if cfg.Epoch < 1 {
		return fmt.Errorf("cluster: epoch %d < 1", cfg.Epoch)
	}
	return nil
}

// Heartbeat contract defaults; the coordinator's values are pushed to
// every member in the welcome message so both sides always agree.
const (
	// DefaultHeartbeatInterval is how often members prove liveness.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultHeartbeatTimeout is how long the coordinator waits before
	// declaring a silent member dead.
	DefaultHeartbeatTimeout = 2500 * time.Millisecond
)
