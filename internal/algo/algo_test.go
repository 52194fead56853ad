package algo

import (
	"strings"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/transport"
)

// TestAllGatherBaselinesNeedPowerOfTwoWorld: the four algorithms that
// exchange through AllGather build at a power-of-two world and are
// rejected by Build at any other, while the gTop-k tree builds at both.
func TestAllGatherBaselinesNeedPowerOfTwoWorld(t *testing.T) {
	const dim = 64
	build := func(name string, world int) error {
		fabric, err := transport.NewInProc(world)
		if err != nil {
			t.Fatal(err)
		}
		defer fabric.Close() //nolint:errcheck // test teardown
		_, err = Build(Spec{Algo: name, Density: 0.1, Seed: 1}, collective.New(fabric.Conn(0)), dim, []int{0, dim})
		return err
	}
	for _, name := range []string{"topk", "gtopk-naive", "signsgd", "terngrad"} {
		if err := build(name, 4); err != nil {
			t.Errorf("%s at world 4: %v", name, err)
		}
		if err := build(name, 3); err == nil || !strings.Contains(err.Error(), "power-of-two world; got 3") {
			t.Errorf("%s at world 3: err = %v, want the power-of-two rejection", name, err)
		}
	}
	for _, world := range []int{3, 4} {
		if err := build("gtopk", world); err != nil {
			t.Errorf("gtopk at world %d: %v", world, err)
		}
	}
}

// TestBuildChecksQuorumAgainstWorld: Build refuses a quorum the world
// cannot hold, so a spec that builds at world 4 fails once an elastic
// epoch shrinks the world to 2.
func TestBuildChecksQuorumAgainstWorld(t *testing.T) {
	const dim = 64
	spec := Spec{Algo: "gtopk", Density: 0.1, Seed: 1, Quorum: core.QuorumConfig{Q: 3, Timeout: 100 * time.Millisecond}}
	build := func(world int) error {
		fabric, err := transport.NewInProc(world)
		if err != nil {
			t.Fatal(err)
		}
		defer fabric.Close() //nolint:errcheck // test teardown
		_, err = Build(spec, collective.New(fabric.Conn(0)), dim, []int{0, dim})
		return err
	}
	if err := build(4); err != nil {
		t.Errorf("world 4: %v", err)
	}
	if err := build(2); err == nil || !strings.Contains(err.Error(), "-quorum 3 out of range [2,2]") {
		t.Errorf("world 2: err = %v, want the quorum range rejection", err)
	}
}
