package netsim

import (
	"testing"
	"time"
)

func TestLinkModelGrouping(t *testing.T) {
	intra := Model{Alpha: 1 * time.Millisecond, Beta: 1 * time.Nanosecond}
	inter := Model{Alpha: 50 * time.Millisecond, Beta: 10 * time.Nanosecond}
	lm, err := NewLinkModel(intra, inter, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLinkModel(intra, inter, 0); err == nil {
		t.Fatal("group size 0 accepted")
	}
	if lm.Group(3) != 0 || lm.Group(4) != 1 || lm.Group(7) != 1 {
		t.Fatalf("grouping wrong: %d %d %d", lm.Group(3), lm.Group(4), lm.Group(7))
	}
	if got := lm.Link(0, 3); got != intra {
		t.Fatalf("intra link priced %+v", got)
	}
	if got := lm.Link(0, 4); got != inter {
		t.Fatalf("inter link priced %+v", got)
	}
	if lm.PointToPoint(2, 2, 100) != 0 {
		t.Fatal("self link should cost nothing")
	}
	if got, want := lm.PointToPoint(0, 1, 1000), intra.PointToPoint(1000); got != want {
		t.Fatalf("intra p2p %v want %v", got, want)
	}
}
