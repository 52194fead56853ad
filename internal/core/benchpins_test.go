package core_test

import (
	"context"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestGTopKRefusesChunks: both chunks-taking pins return an error, and
// send nothing, for any chunks argument but 1.
func TestGTopKRefusesChunks(t *testing.T) {
	f, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	comm := collective.New(f.Conn(0))
	gc, err := comm.ForkGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 never calls, so an accepted call fails on the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	local := &sparse.Vector{Dim: 8}
	for _, chunks := range []int{0, 3} {
		if err := core.GTopKAllReduceInto(ctx, comm, local, 1, chunks, &sparse.Vector{}); err == nil || ctx.Err() != nil {
			t.Errorf("flat: chunks=%d accepted", chunks)
		}
		if err := core.HierarchicalGTopKAllReduceInto(ctx, comm, gc, local, 1, chunks, &sparse.Vector{}); err == nil || ctx.Err() != nil {
			t.Errorf("hierarchical: chunks=%d accepted", chunks)
		}
	}
	if s := comm.Stats(); s.MsgsSent != 0 {
		t.Errorf("a refused call sent %d messages", s.MsgsSent)
	}
}
