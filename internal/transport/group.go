package transport

import (
	"context"
	"fmt"
	"sort"
)

// groupView is a rank-remapping window onto a subset of a parent
// fabric's ranks: local rank i of the view is world rank ranks[i] of the
// parent. It carries no wire state of its own — every Send/Recv
// delegates to the parent endpoint with the destination/source
// translated — so two views over disjoint rank sets may use the same
// tags without interfering (messages are addressed by (src, dst, tag)
// and the world-rank pairs never collide).
//
// The view forwards the parent's optional capabilities (pooled sends,
// synchronous-send and private-recv semantics, negotiated wire version)
// by querying the parent dynamically, so a view over a TCP endpoint
// keeps the TCP hot path and a view over an in-process endpoint keeps
// the aliasing rules.
type groupView struct {
	parent Conn
	ranks  []int // ascending world ranks; local i <-> world ranks[i]
	local  int   // this endpoint's local rank within the view
}

// GroupView wraps parent in a communicator window over the given world
// ranks (which must be ascending, within the parent's world, and contain
// the parent's own rank). The returned Conn's Rank/Size are local to the
// view. Closing the view is a no-op: the parent owns the wire.
func GroupView(parent Conn, ranks []int) (Conn, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("transport: group view over zero ranks")
	}
	if !sort.IntsAreSorted(ranks) {
		return nil, fmt.Errorf("transport: group view ranks %v not ascending", ranks)
	}
	local := -1
	for i, r := range ranks {
		if r < 0 || r >= parent.Size() {
			return nil, fmt.Errorf("transport: group view rank %d outside parent world [0,%d)", r, parent.Size())
		}
		if i > 0 && ranks[i-1] == r {
			return nil, fmt.Errorf("transport: group view rank %d duplicated", r)
		}
		if r == parent.Rank() {
			local = i
		}
	}
	if local < 0 {
		return nil, fmt.Errorf("transport: group view %v excludes own rank %d", ranks, parent.Rank())
	}
	return &groupView{parent: parent, ranks: append([]int(nil), ranks...), local: local}, nil
}

// Rank implements Conn: this endpoint's rank within the view.
func (g *groupView) Rank() int { return g.local }

// Size implements Conn: the number of ranks in the view.
func (g *groupView) Size() int { return len(g.ranks) }

// world translates a local view rank to the parent's world rank.
func (g *groupView) world(local int) (int, error) {
	if local < 0 || local >= len(g.ranks) {
		return 0, fmt.Errorf("transport: group rank %d outside view of %d", local, len(g.ranks))
	}
	return g.ranks[local], nil
}

// Send implements Conn, translating dst to the parent's world rank.
func (g *groupView) Send(ctx context.Context, dst, tag int, payload []byte) error {
	w, err := g.world(dst)
	if err != nil {
		return err
	}
	return g.parent.Send(ctx, w, tag, payload)
}

// SendPooled forwards pool-owned payloads to the parent's pooled path
// when it has one (and its plain Send otherwise, exactly like the
// package-level SendPooled helper).
func (g *groupView) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	w, err := g.world(dst)
	if err != nil {
		return err
	}
	return SendPooled(ctx, g.parent, w, tag, payload)
}

// Recv implements Conn, translating src to the parent's world rank.
func (g *groupView) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	w, err := g.world(src)
	if err != nil {
		return nil, err
	}
	return g.parent.Recv(ctx, w, tag)
}

// Close implements Conn as a no-op: the parent endpoint owns the wire
// and may back several concurrent views.
func (g *groupView) Close() error { return nil }

// SendIsSynchronous reports the parent's plain-send consumption rule.
func (g *groupView) SendIsSynchronous() bool { return SendConsumedOnReturn(g.parent) }

// RecvIsPrivate reports the parent's payload-ownership rule.
func (g *groupView) RecvIsPrivate() bool { return PrivateRecv(g.parent) }

// NegotiatedWireVersion reports the parent fabric's negotiated sparse
// wire version — the view changes addressing, never framing.
func (g *groupView) NegotiatedWireVersion() byte { return NegotiatedWireVersion(g.parent) }
