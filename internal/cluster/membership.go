package cluster

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"
)

// This file holds every membership decision of the coordinator as one
// pure function, coordState.apply: an event in, the actions it implies
// out. apply takes no lock, does no I/O, starts no goroutine and reads
// no clock — time arrives inside the event — so a test can drive it
// through every interleaving of joins, heartbeats, ticks, departures,
// failures and aborts (TestMembershipExplored), and the Coordinator is
// a shell that only moves bytes.

// Event types besides the worker's control messages (msgJoin,
// msgHeartbeat, msgLeave, msgFail and msgDegraded); only the shell
// posts them.
const (
	// evTick is the heartbeat ticker: deadlines are checked, and it is
	// the epoch boundary at which parked joiners are admitted.
	evTick = "tick"
	// evClosed ends a connection: a read error or a protocol
	// violation; msg.Reason says which.
	evClosed = "closed"
)

// event is one input of the membership state machine: msg.T is a
// worker message type, evTick or evClosed, and a connection's event
// carries in msg.Name the name the connection joined as.
type event struct {
	id  int       // the control connection it came from (none for a tick)
	now time.Time // the shell's clock when the event was posted
	msg message
}

// Action kinds: what apply asks the shell to do.
const (
	actSend   = iota // write msg to connection id, after its earlier writes
	actClose         // close connection id once its queued writes are out
	actFinish        // end the job with err (nil: it completed)
)

// action is one output of the membership state machine.
type action struct {
	kind int
	id   int
	msg  *message
	err  error
}

// memberState is the coordinator's view of one worker.
type memberState struct {
	id       int // the control connection it joined on
	name     string
	addr     string
	lastHB   time.Time
	parkedAt time.Time // when a late joiner entered the pending queue
}

// coordState is an elastic job's membership: who is in the running
// epoch, who is parked for the next epoch boundary, and whether the job
// is over. Only apply changes it.
type coordState struct {
	cfg      CoordinatorConfig
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
	done           bool // a worker reported the job complete
	finished       bool // the finish action is out
	out            []action
}

func newCoordState(cfg CoordinatorConfig) *coordState {
	return &coordState{
		cfg:            cfg,
		members:        make(map[string]*memberState, cfg.World),
		pending:        make(map[string]*memberState),
		degraded:       make(map[string]int),
		degradedGroups: make(map[int]int),
	}
}

// apply folds one event into the membership and returns the actions it
// implies, in order. Epoch 1 forms the moment the World-th worker
// joins. A member lost (a lost connection, missed heartbeats or a leave
// without done) and every tick are epoch boundaries: below MinWorld the
// job aborts, otherwise parked joiners are admitted up to MaxWorld and
// the next epoch forms if anyone left or entered. A fail aborts the job
// for every member; a leave with done marks the job complete, after
// which departures form no epoch and the last one finishes the job.
func (s *coordState) apply(ev event) []action {
	if s.finished {
		// An ended job takes no event: once a failed agreement has
		// aborted it, the reporter's lost connection must not re-form
		// an epoch around a peer that has not read the verdict yet.
		return nil
	}
	s.out = nil
	// The member or parked joiner ev's connection joined as; nil once
	// the job no longer counts it (departed, declared dead or rejected).
	m, parked := s.members[ev.msg.Name], false
	if m == nil {
		m, parked = s.pending[ev.msg.Name], true
	}
	if m != nil && m.id != ev.id {
		m = nil
	}
	switch ev.msg.T {
	case msgJoin:
		s.join(ev)
	case msgHeartbeat:
		if m != nil {
			m.lastHB = ev.now
			break
		}
		// Declared dead earlier (e.g. a heartbeat gap) but still
		// talking: tell it to stop; the job moved on without it.
		s.send(ev.id, &message{T: msgAbort, Reason: "declared dead; rejoin is not supported"})
		s.close(ev.id)
	case msgDegraded:
		// Deliberately NOT a membership event: the worker is alive (it
		// just told us so), merely slow, and quorum aggregation already
		// contains the damage — reforming the epoch would trade bounded
		// staleness for a full restart. Group carries the reporter's
		// hierarchy group index plus one, 0 for a flat quorum.
		if m == nil {
			break
		}
		s.degraded[m.name]++
		if group := ev.msg.Group - 1; group < 0 {
			s.cfg.Logf("cluster: %s reports degraded (%s); %d report(s) so far, epoch unchanged",
				m.name, ev.msg.Reason, s.degraded[m.name])
		} else {
			s.degradedGroups[group]++
			s.cfg.Logf("cluster: %s reports degraded (%s); group %d has %d report(s), %d from this member, epoch unchanged",
				m.name, ev.msg.Reason, group, s.degradedGroups[group], s.degraded[m.name])
		}
	case msgLeave:
		s.done = s.done || ev.msg.Done
		if m == nil {
			break
		}
		s.close(ev.id)
		if parked {
			delete(s.pending, m.name)
			s.cfg.Logf("cluster: parked joiner %s left before admission", m.name)
			break
		}
		delete(s.members, m.name)
		s.cfg.Logf("cluster: %s left (done=%v)", m.name, ev.msg.Done)
		s.reform(true, ev.now)
	case msgFail:
		if m != nil && !parked {
			s.abort(fmt.Errorf("cluster: %s failed the job: %s", m.name, ev.msg.Reason))
		}
	case evClosed:
		if m != nil {
			s.close(ev.id)
			if s.down(m, parked, ev.msg.Reason) {
				s.reform(true, ev.now)
			}
		}
	case evTick:
		if !s.started || s.done {
			break
		}
		// Parked joiners heartbeat too: a joiner that died while waiting
		// must never be admitted into an epoch.
		lost := false
		for _, m := range s.roll() {
			if ev.now.Sub(m.lastHB) > s.cfg.HeartbeatTimeout {
				lost = s.down(m, s.pending[m.name] == m, fmt.Sprintf("missed heartbeats for %v", s.cfg.HeartbeatTimeout)) || lost
			}
		}
		s.reform(lost, ev.now)
	}
	if s.done && len(s.members) == 0 && !s.finished {
		for _, p := range s.roll() {
			s.close(p.id)
		}
		s.finish(nil)
	}
	return s.out
}

// roll returns the members and then the parked joiners, each in name
// order.
func (s *coordState) roll() []*memberState {
	byName := func(a, b *memberState) int { return strings.Compare(a.name, b.name) }
	return append(slices.SortedFunc(maps.Values(s.members), byName), slices.SortedFunc(maps.Values(s.pending), byName)...)
}

func (s *coordState) send(id int, msg *message) {
	s.out = append(s.out, action{kind: actSend, id: id, msg: msg})
}

func (s *coordState) close(id int) { s.out = append(s.out, action{kind: actClose, id: id}) }

func (s *coordState) finish(err error) {
	s.finished = true
	s.out = append(s.out, action{kind: actFinish, err: err})
}

// join registers a worker into the founding membership (before epoch 1)
// or parks it until the next epoch boundary (after it), welcoming it
// either way; a join that is not allowed is rejected. The welcome goes
// out before any config, so a member always reads it first; a parked
// joiner learns it is queued for the next epoch boundary.
func (s *coordState) join(ev event) {
	m := &memberState{id: ev.id, name: ev.msg.Name, addr: ev.msg.Addr, lastHB: ev.now, parkedAt: ev.now}
	var reason string
	switch parked := s.started; {
	case s.done:
		reason = "job already finished"
	case s.members[m.name] != nil || s.pending[m.name] != nil:
		// A live member's name is its identity across epochs; a joiner
		// reusing one is either a zombie of the original or an operator
		// mistake, and admitting it would corrupt the re-shard mapping.
		reason = fmt.Sprintf("name %q already joined (pick a name no live or parked worker holds)", m.name)
	case parked && len(s.members)+len(s.pending) >= s.cfg.MaxWorld:
		reason = fmt.Sprintf("world full (%d live + %d parked at max %d); late join refused",
			len(s.members), len(s.pending), s.cfg.MaxWorld)
	default:
		if parked {
			s.pending[m.name] = m
			s.cfg.Logf("cluster: %s join parked from %s (%d live, %d pending, max %d)",
				m.name, m.addr, len(s.members), len(s.pending), s.cfg.MaxWorld)
		} else {
			s.members[m.name] = m
			s.cfg.Logf("cluster: %s joined from %s (%d/%d)", m.name, m.addr, len(s.members), s.cfg.World)
		}
		s.send(m.id, &message{T: msgWelcome, Parked: parked,
			HBMs: s.cfg.HeartbeatInterval.Milliseconds(), DeadMs: s.cfg.HeartbeatTimeout.Milliseconds()})
		if !parked && len(s.members) == s.cfg.World {
			s.started = true
			s.form()
		}
		return
	}
	s.send(ev.id, &message{T: msgReject, Reason: reason})
	s.close(ev.id)
}

// down removes a failed member, reporting whether the running epoch
// lost it. A dead parked joiner is simply dropped from the queue — it
// never entered an epoch, so nothing needs re-forming.
func (s *coordState) down(m *memberState, parked bool, reason string) bool {
	if parked {
		delete(s.pending, m.name)
		s.cfg.Logf("cluster: parked joiner %s is down (%s); %d still pending", m.name, reason, len(s.pending))
		return false
	}
	delete(s.members, m.name)
	s.cfg.Logf("cluster: %s is down (%s); %d remain", m.name, reason, len(s.members))
	return true
}

// reform moves a running job across an epoch boundary — a tick, or a
// member lost — and forms at most one epoch doing so. Below MinWorld
// the job aborts. Otherwise every parked joiner the MaxWorld bound
// allows is admitted, in name order, so which joiners enter a
// partially-admitting epoch is a pure function of the queue, not of
// arrival order; and when anyone left or entered, the next epoch forms.
// Before epoch 1, and once the job is done, nothing forms.
func (s *coordState) reform(lost bool, now time.Time) {
	if !s.started || s.done {
		return
	}
	if len(s.members) < s.cfg.MinWorld {
		s.abort(fmt.Errorf("cluster: %d workers left, below minimum %d", len(s.members), s.cfg.MinWorld))
	}
	if s.finished {
		return // an aborted job admits no one
	}
	names := slices.Sorted(maps.Keys(s.pending))
	names = names[:max(0, min(s.cfg.MaxWorld-len(s.members), len(names)))]
	for _, name := range names {
		p := s.pending[name]
		delete(s.pending, name)
		s.members[name] = p
		s.cfg.Logf("cluster: %s admitted at epoch boundary after %v parked (world %d -> %d)",
			name, now.Sub(p.parkedAt).Round(time.Millisecond), len(s.members)-1, len(s.members))
	}
	if lost || len(names) > 0 {
		s.form()
	}
}

// form declares the next epoch over the current membership and sends
// each member its config. Ranks come from the deterministic re-shard
// rule (Reshard: name order) for every epoch: a shrink keeps the
// survivors' relative order, and a grow slots each admitted joiner at
// its name-order position.
func (s *coordState) form() {
	s.epoch++
	names := Reshard(slices.Collect(maps.Keys(s.members)))
	addrs := make([]string, len(names))
	for rank, name := range names {
		addrs[rank] = s.members[name].addr
	}
	s.cfg.Logf("cluster: epoch %d formed: world %d, members %v", s.epoch, len(names), names)
	for rank, name := range names {
		s.send(s.members[name].id, &message{T: msgConfig, Config: &Config{
			Epoch: s.epoch, Rank: rank, World: len(names), Names: names, Addrs: addrs,
		}})
	}
}

// abort fails the whole job: every member and parked joiner gets the
// verdict and its connection closed, then the job finishes with err.
func (s *coordState) abort(err error) {
	s.cfg.Logf("cluster: aborting job: %v", err)
	for _, m := range s.roll() {
		s.send(m.id, &message{T: msgAbort, Reason: err.Error()})
		s.close(m.id)
	}
	s.finish(err)
}
