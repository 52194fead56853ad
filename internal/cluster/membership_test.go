package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The exploration drives coordState.apply through every interleaving of
// up to depth events — joins, heartbeats, ticks, degraded reports,
// leaves with and without done, failed agreements and lost connections —
// from the workers of a small job, visiting each distinct state once
// (FoundationDB-style deterministic simulation, pointed at the error
// paths a soak rarely reaches). Time is a tick counter: ticks fall at
// multiples of simTick, every other event between two ticks, and the
// heartbeat timeout equals one tick period, so a member that sends
// nothing between two ticks is declared dead at the second.
const simTick = 2 * time.Second

var simEpoch = time.Unix(1_000_000, 0)

// simConn is a worker's side of one control connection: what the
// coordinator sent it, and what it can still send.
type simConn struct {
	name               string
	welcomed, rejected bool
	closed             bool // the coordinator closed it
	gone               bool // its leave or loss was delivered: no further event
	epoch              uint64
	verdict            string // the abort it read
}

// sim is one explored state: the membership under test and every
// worker's view of it.
type sim struct {
	s     *coordState
	conns []simConn // connection id i+1
	ticks int
	live  []string // the names of the latest config
	err   error    // the finish verdict
}

func (w *sim) clone() *sim {
	c := *w
	c.conns = slices.Clone(w.conns)
	s := *w.s
	s.members, s.pending = cloneMembers(w.s.members), cloneMembers(w.s.pending)
	s.degraded, s.degradedGroups = maps.Clone(w.s.degraded), maps.Clone(w.s.degradedGroups)
	c.s = &s
	return &c
}

func cloneMembers(in map[string]*memberState) map[string]*memberState {
	out := make(map[string]*memberState, len(in))
	for name, m := range in {
		mm := *m
		out[name] = &mm
	}
	return out
}

// key hashes the state for the visited set. A member's heartbeat enters
// as the number of ticks since it (0, 1 or 2+), which is all apply
// reads of it; parkedAt and the degraded counters, which no decision
// reads, stay out.
func (w *sim) key() uint64 {
	s := w.s
	last := simEpoch.Add(time.Duration(w.ticks) * simTick)
	b := strconv.AppendUint(nil, s.epoch, 10)
	for _, f := range []bool{s.started, s.done, s.finished} {
		b = strconv.AppendBool(b, f)
	}
	for _, name := range w.live {
		b = append(append(b, ' '), name...)
	}
	b = append(b, '|')
	for _, m := range s.roll() {
		age := 0
		if !m.lastHB.After(last) {
			age = min(2, 1+int(last.Sub(m.lastHB)/simTick))
		}
		b = append(append(b, m.name...), byte('0'+m.id), byte('0'+age))
		if s.pending[m.name] == m {
			b = append(b, 'p')
		}
	}
	for _, c := range w.conns {
		b = append(append(append(b, '|'), c.name...), c.verdict...)
		b = strconv.AppendUint(b, c.epoch, 10)
		for _, f := range []bool{c.welcomed, c.rejected, c.closed, c.gone} {
			b = strconv.AppendBool(b, f)
		}
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // a hash.Hash never fails
	return h.Sum64()
}

// next lists every event a worker or the ticker can post in state w.
func (w *sim) next(names []string, maxConns int) []event {
	now := simEpoch.Add(time.Duration(w.ticks)*simTick + time.Second)
	var evs []event
	for i, c := range w.conns {
		if c.gone {
			continue
		}
		from := func(m message) event { m.Name = c.name; return event{id: i + 1, now: now, msg: m} }
		evs = append(evs, from(message{T: evClosed, Reason: "control connection lost"}))
		if !c.welcomed || c.closed {
			continue
		}
		// A heartbeat from a member that already sent one since the last
		// tick changes nothing, so it is not offered again.
		counted := w.s.members[c.name]
		if counted == nil {
			counted = w.s.pending[c.name]
		}
		if counted == nil || counted.id != i+1 || !counted.lastHB.Equal(now) {
			evs = append(evs, from(message{T: msgHeartbeat}))
		}
		evs = append(evs, from(message{T: msgLeave}))
		if c.epoch > 0 {
			evs = append(evs, from(message{T: msgLeave, Done: true}), from(message{T: msgFail, Reason: "weights diverge"}),
				from(message{T: msgDegraded, Reason: "slow", Group: i % 2}))
		}
	}
	for _, name := range names {
		held := 0
		for _, c := range w.conns {
			if c.name == name {
				held++
			}
		}
		if held < 2 && len(w.conns) < maxConns {
			evs = append(evs, event{id: len(w.conns) + 1, now: now, msg: message{T: msgJoin, Name: name, Addr: name + ":1"}})
		}
	}
	return append(evs, event{now: simEpoch.Add(time.Duration(w.ticks+1) * simTick), msg: message{T: evTick}})
}

// simStats counts what the exploration reached, so a model that stopped
// reaching a path fails rather than passing vacuously.
type simStats struct {
	states, completed, failed, belowMin, grown, zombies int
}

// step applies ev to a copy of w and checks every invariant on the
// actions and on the state they leave.
func (w *sim) step(ev event, st *simStats) (*sim, error) {
	n := w.clone()
	s := n.s
	switch ev.msg.T {
	case evTick:
		n.ticks++
	case msgJoin:
		n.conns = append(n.conns, simConn{name: ev.msg.Name})
	}
	failer := ev.msg.T == msgFail && !s.finished && s.members[ev.msg.Name] != nil && s.members[ev.msg.Name].id == ev.id
	wasFinished, world := s.finished, len(s.members)
	acts := s.apply(ev)
	if ev.id > 0 {
		c := &n.conns[ev.id-1]
		c.gone = c.gone || ev.msg.T == evClosed || ev.msg.T == msgLeave
	}
	if wasFinished && len(acts) > 0 {
		return n, fmt.Errorf("%d actions after finish", len(acts))
	}
	for i, a := range acts {
		if a.kind == actFinish {
			if i != len(acts)-1 {
				return n, fmt.Errorf("action %d follows finish", i+1)
			}
			n.err = a.err
			switch {
			case a.err == nil:
				st.completed++
			case strings.Contains(a.err.Error(), "failed the job"):
				st.failed++
			default:
				st.belowMin++
			}
			continue
		}
		if a.id < 1 || a.id > len(n.conns) {
			return n, fmt.Errorf("action on unknown connection %d", a.id)
		}
		c := &n.conns[a.id-1]
		if c.closed {
			return n, fmt.Errorf("action on connection %d after it was closed", a.id)
		}
		if a.kind == actClose {
			c.closed = true
			continue
		}
		switch m := a.msg; m.T {
		case msgWelcome, msgReject:
			if c.welcomed || c.rejected {
				return n, fmt.Errorf("second handshake reply %q to %s", m.T, c.name)
			}
			c.welcomed, c.rejected = m.T == msgWelcome, m.T == msgReject
		case msgConfig:
			cf := m.Config
			switch {
			case !c.welcomed:
				return n, fmt.Errorf("config before welcome to %s", c.name)
			case c.gone:
				return n, fmt.Errorf("epoch %d names %s, which departed", cf.Epoch, c.name)
			case cf.Epoch != s.epoch || cf.Epoch <= c.epoch:
				return n, fmt.Errorf("%s got epoch %d after %d (current %d)", c.name, cf.Epoch, c.epoch, s.epoch)
			case validateConfig(cf) != nil || cf.Names[cf.Rank] != c.name || !slices.IsSorted(cf.Names):
				return n, fmt.Errorf("bad config %+v to %s", cf, c.name)
			}
			c.epoch, n.live = cf.Epoch, cf.Names
			if cf.Epoch > 1 && cf.World > world {
				st.grown++
			}
		case msgAbort:
			c.verdict = m.Reason
			if strings.Contains(m.Reason, "declared dead") {
				st.zombies++
			}
		default:
			return n, fmt.Errorf("unexpected %q to %s", m.T, c.name)
		}
	}
	if failer && (!s.finished || n.err == nil || !strings.Contains(n.err.Error(), ev.msg.Reason)) {
		return n, fmt.Errorf("%s's failed agreement did not abort the job", ev.msg.Name)
	}
	members := slices.Sorted(maps.Keys(s.members))
	for _, m := range s.roll() {
		c := n.conns[m.id-1]
		switch parked := s.pending[m.name] == m; {
		case s.finished && (c.verdict != errText(n.err) || !c.closed):
			return n, fmt.Errorf("%s ended with verdict %q (closed %v), the job with %v", m.name, c.verdict, c.closed, n.err)
		case s.finished:
		case c.gone || !c.welcomed:
			return n, fmt.Errorf("%s is counted but departed or was never welcomed", m.name)
		case s.started && !parked && c.epoch != s.epoch:
			return n, fmt.Errorf("%s holds epoch %d while epoch %d is live", m.name, c.epoch, s.epoch)
		}
	}
	if s.finished && n.err == nil && len(members) > 0 {
		return n, fmt.Errorf("job completed with members %v still in it", members)
	}
	if s.started && !s.done && !s.finished && !slices.Equal(n.live, members) {
		return n, fmt.Errorf("live epoch %d names %v, members are %v", s.epoch, n.live, members)
	}
	return n, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// explore runs the breadth-first search to depth and fails with the
// event trace of the first state that breaks an invariant.
func explore(t *testing.T, cfg CoordinatorConfig, names []string, depth int, st *simStats) {
	t.Helper()
	job := fmt.Sprintf("world %d, min %d, max %d", cfg.World, cfg.MinWorld, cfg.MaxWorld)
	cfg.HeartbeatInterval, cfg.HeartbeatTimeout = simTick/2, simTick
	cfg.Logf = func(string, ...any) {}
	type node struct {
		w      *sim
		parent *node
		ev     event
	}
	trace := func(nd *node, last ...event) string {
		evs := last
		for ; nd.parent != nil; nd = nd.parent {
			evs = append(evs, nd.ev)
		}
		var out []string
		for _, ev := range slices.Backward(evs) {
			out = append(out, fmt.Sprintf("%s(#%d %s done=%v)", ev.msg.T, ev.id, ev.msg.Name, ev.msg.Done))
		}
		return strings.Join(out, " → ")
	}
	start := &node{w: &sim{s: newCoordState(cfg)}}
	seen := map[uint64]bool{start.w.key(): true}
	frontier := []*node{start}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []*node
		for _, nd := range frontier {
			for _, ev := range nd.w.next(names, len(names)+1) {
				w, err := nd.w.step(ev, st)
				child := &node{w: w, parent: nd, ev: ev}
				if err != nil {
					t.Fatalf("%s: %v after %s", job, err, trace(child))
				}
				if k := w.key(); !seen[k] && !w.s.finished {
					seen[k] = true
					next = append(next, child)
				} else if !seen[k] {
					// An ended job is offered every event once more:
					// each must leave it inert.
					seen[k] = true
					for _, ev := range w.next(names, len(names)+1) {
						if acts := w.s.apply(ev); len(acts) > 0 {
							t.Fatalf("%s: %d actions after finish: %s", job, len(acts), trace(child, ev))
						}
					}
				}
			}
			nd.w = nil // a trace needs only the events
		}
		st.states += len(next)
		frontier = next
	}
}

// TestMembershipExplored explores every interleaving of up to a few
// events for jobs of two, three and four founders, with and without a
// MinWorld above one and with room for a parked joiner, and asserts at
// every state: at most one live epoch, held by every member; every
// epoch member is welcomed and has not departed; a failed agreement
// aborts the job for every member and nothing follows it; every member
// of an ended job ends closed with the job's verdict; and no action
// follows finish.
func TestMembershipExplored(t *testing.T) {
	var st simStats
	for _, c := range []struct {
		cfg   CoordinatorConfig
		names []string
		depth int
	}{
		{CoordinatorConfig{World: 2, MinWorld: 1, MaxWorld: 3}, []string{"a", "b", "c"}, 7},
		{CoordinatorConfig{World: 2, MinWorld: 2, MaxWorld: 3}, []string{"a", "b", "c"}, 7},
		{CoordinatorConfig{World: 3, MinWorld: 2, MaxWorld: 4}, []string{"a", "b", "c", "d"}, 6},
		{CoordinatorConfig{World: 4, MinWorld: 3, MaxWorld: 4}, []string{"a", "b", "c", "d"}, 6},
	} {
		explore(t, c.cfg, c.names, c.depth, &st)
	}
	t.Logf("%+v", st)
	if st.completed == 0 || st.failed == 0 || st.belowMin == 0 || st.grown == 0 || st.zombies == 0 {
		t.Fatalf("the exploration missed a path: %+v", st)
	}
}

// TestMembershipIsPure holds membership.go, where every membership
// decision lives, to a pure state machine: it imports no package that
// does I/O or synchronisation (none but fmt, maps, slices, strings and
// time), uses time only for its types and units — no clock, no timer —
// and starts no goroutine.
func TestMembershipIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "membership.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); !slices.Contains([]string{"fmt", "maps", "slices", "strings", "time"}, p) {
			t.Errorf("membership.go imports %s", p)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: membership.go starts a goroutine", fset.Position(n.Pos()))
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && !slices.Contains([]string{"Time", "Duration", "Millisecond"}, n.Sel.Name) {
				t.Errorf("%s: membership.go calls time.%s", fset.Position(n.Pos()), n.Sel.Name)
			}
		}
		return true
	})
}
