package netsim

import (
	"fmt"
	"time"
)

// LinkModel assigns per-link α-β parameters by group membership: ranks
// are partitioned into contiguous groups of GroupSize, links within a
// group charge the Intra model (datacenter), links crossing groups
// charge the Inter model (WAN). This is the heterogeneous-topology
// extension a quorum round's legs are priced with
// (collective.Comm.ChargeLeg) — a round that closes without its WAN
// stragglers is charged only for the links that actually carried a
// contribution.
type LinkModel struct {
	// Intra prices links between ranks of the same group.
	Intra Model
	// Inter prices links between ranks of different groups.
	Inter Model
	// GroupSize is the number of consecutive ranks per group (rank r is
	// in group r/GroupSize).
	GroupSize int
}

// NewLinkModel validates and builds a grouped link model.
func NewLinkModel(intra, inter Model, groupSize int) (*LinkModel, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("netsim: link model group size %d out of range: need >= 1", groupSize)
	}
	return &LinkModel{Intra: intra, Inter: inter, GroupSize: groupSize}, nil
}

// Group returns the group index of rank r.
func (m *LinkModel) Group(r int) int { return r / m.GroupSize }

// Link returns the α-β model of the (a, b) link: Intra when both ranks
// share a group, Inter otherwise. Links are symmetric.
func (m *LinkModel) Link(a, b int) Model {
	if m.Group(a) == m.Group(b) {
		return m.Intra
	}
	return m.Inter
}

// PointToPoint returns the modelled transfer time of n elements over the
// (a, b) link.
func (m *LinkModel) PointToPoint(a, b, n int) time.Duration {
	if a == b {
		return 0
	}
	return m.Link(a, b).PointToPoint(n)
}
