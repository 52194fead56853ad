package transport

import (
	"context"
	"strings"
	"testing"
)

// TestGroupViewRemapsRanks checks local<->world translation on sends and
// receives across two disjoint views sharing one tag.
func TestGroupViewRemapsRanks(t *testing.T) {
	fab, err := NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	// Views {0,1} and {2,3}: local rank 1 -> world 1 and world 3.
	lo0, err := GroupView(fab.Conn(0), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lo1, err := GroupView(fab.Conn(1), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	hi0, err := GroupView(fab.Conn(2), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	hi1, err := GroupView(fab.Conn(3), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []Conn{lo0, lo1, hi0, hi1} {
		if v.Size() != 2 || v.Rank() != i%2 {
			t.Fatalf("view %d: rank %d size %d, want rank %d size 2", i, v.Rank(), v.Size(), i%2)
		}
	}

	ctx := context.Background()
	// Same tag on both views: world pairs (0,1) and (2,3) are disjoint,
	// so no crosstalk.
	if err := lo0.Send(ctx, 1, 7, []byte("low")); err != nil {
		t.Fatal(err)
	}
	if err := hi0.Send(ctx, 1, 7, []byte("high")); err != nil {
		t.Fatal(err)
	}
	if got, err := lo1.Recv(ctx, 0, 7); err != nil || string(got) != "low" {
		t.Fatalf("low recv = %q, %v", got, err)
	}
	if got, err := hi1.Recv(ctx, 0, 7); err != nil || string(got) != "high" {
		t.Fatalf("high recv = %q, %v", got, err)
	}

	// A non-contiguous "leader" view over {0, 2}.
	ld0, err := GroupView(fab.Conn(0), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	ld1, err := GroupView(fab.Conn(2), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ld1.Send(ctx, 0, 9, []byte("leader")); err != nil {
		t.Fatal(err)
	}
	if got, err := ld0.Recv(ctx, 1, 9); err != nil || string(got) != "leader" {
		t.Fatalf("leader recv = %q, %v", got, err)
	}
}

// TestGroupViewValidation exercises the construction and addressing
// error paths.
func TestGroupViewValidation(t *testing.T) {
	fab, err := NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	cases := []struct {
		name  string
		ranks []int
		want  string
	}{
		{"empty", nil, "zero ranks"},
		{"unsorted", []int{2, 0}, "not ascending"},
		{"out-of-world", []int{0, 9}, "outside parent world"},
		{"duplicate", []int{0, 0}, "duplicated"},
		{"excludes-self", []int{1, 2}, "excludes own rank"},
	}
	for _, tc := range cases {
		if _, err := GroupView(fab.Conn(0), tc.ranks); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	v, err := GroupView(fab.Conn(0), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Send(context.Background(), 2, 1, nil); err == nil {
		t.Fatal("send outside view succeeded")
	}
	if _, err := v.Recv(context.Background(), -1, 1); err == nil {
		t.Fatal("recv outside view succeeded")
	}
	if err := v.Close(); err != nil {
		t.Fatalf("view close = %v, want nil no-op", err)
	}
	// The parent must still work after a view close.
	if err := fab.Conn(0).Send(context.Background(), 1, 3, []byte("x")); err != nil {
		t.Fatalf("parent send after view close: %v", err)
	}
	if _, err := fab.Conn(1).Recv(context.Background(), 0, 3); err != nil {
		t.Fatalf("parent recv after view close: %v", err)
	}
}

// TestGroupViewForwardsCapabilities: the view must report its parent's
// wire capabilities, not defaults — TCP keeps private receives and
// synchronous sends, inproc keeps neither, and the negotiated wire
// version passes through.
func TestGroupViewForwardsCapabilities(t *testing.T) {
	inproc, err := NewInProcWire(2, WireV3)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	iv, err := GroupView(inproc.Conn(0), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if PrivateRecv(iv) != PrivateRecv(inproc.Conn(0)) {
		t.Fatal("inproc view PrivateRecv mismatch")
	}
	if SendConsumedOnReturn(iv) != SendConsumedOnReturn(inproc.Conn(0)) {
		t.Fatal("inproc view SendConsumedOnReturn mismatch")
	}
	if got, want := NegotiatedWireVersion(iv), NegotiatedWireVersion(inproc.Conn(0)); got != want {
		t.Fatalf("inproc view wire version %d, want %d", got, want)
	}

	tcp, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tv, err := GroupView(tcp.Conn(1), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !PrivateRecv(tv) || !SendConsumedOnReturn(tv) {
		t.Fatal("tcp view lost the private-recv/sync-send capabilities")
	}
}
