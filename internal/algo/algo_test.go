package algo

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestValidate holds one accepted and one refused spec per world-free
// rule; a refused row names the message it must print.
func TestValidate(t *testing.T) {
	quorum := func(q, leader int, timeout time.Duration) core.QuorumConfig {
		return core.QuorumConfig{Q: q, LeaderQ: leader, Timeout: timeout}
	}
	const to = 50 * time.Millisecond
	for _, tc := range []struct {
		rule string
		spec Spec
		err  string // "" when the spec is accepted
	}{
		{"known-algo", Spec{Algo: "gtopk-ps", Density: 0.1}, ""},
		{"known-algo", Spec{Algo: "magic", Density: 0.1}, `unknown -algo "magic"`},
		{"density", Spec{Algo: "dense"}, ""},
		{"density", Spec{Algo: "topk"}, "-density 0 out of range: need 0 < rho <= 1"},
		{"density", Spec{Algo: "gtopk", Density: 1.5}, "-density 1.5 out of range"},
		{"hier-group-range", Spec{Algo: "gtopk", Density: 0.1, HierGroup: 2}, ""},
		{"hier-group-range", Spec{Algo: "gtopk", Density: 0.1, HierGroup: -1}, "-hier-group -1 out of range: need >= 0"},
		{"hier-group-tree", Spec{Algo: "gtopk-quant8", Density: 0.1, HierGroup: 4}, ""},
		{"hier-group-tree", Spec{Algo: "dense", HierGroup: 4}, "-hier-group requires -algo gtopk, gtopk-hier or gtopk-quant8"},
		{"quorum-range", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(3, 0, to)}, ""},
		{"quorum-range", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(-3, 0, to)}, "-quorum -3 out of range: need >= 0"},
		{"quorum-tree", Spec{Algo: "gtopk-hier", Density: 0.1, Quorum: quorum(3, 0, to)}, ""},
		{"quorum-tree", Spec{Algo: "topk", Density: 0.1, Quorum: quorum(3, 0, to)}, "-quorum requires -algo gtopk, gtopk-hier or gtopk-quant8"},
		{"quorum-timeout", Spec{Algo: "gtopk", Density: 0.1}, ""},
		{"quorum-timeout", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(3, 0, 0)}, "-quorum requires -round-timeout > 0 (got 0s)"},
		{"quorum-timeout", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(3, 0, -time.Second)}, "-quorum requires -round-timeout > 0 (got -1s)"},
		{"quorum-timeout", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(0, 0, to)}, "-round-timeout requires -quorum"},
		{"leader-quorum-range", Spec{Algo: "gtopk", Density: 0.1, HierGroup: 2, Quorum: quorum(2, 0, to)}, ""},
		{"leader-quorum-range", Spec{Algo: "gtopk", Density: 0.1, HierGroup: 2, Quorum: quorum(2, -1, to)}, "-leader-quorum -1 out of range: need >= 0"},
		{"leader-quorum-hier", Spec{Algo: "gtopk-hier", Density: 0.1, Quorum: quorum(3, 2, to)}, ""},
		{"leader-quorum-hier", Spec{Algo: "gtopk", Density: 0.1, Quorum: quorum(3, 2, to)}, "-leader-quorum requires -quorum and -hier-group"},
		{"leader-quorum-hier", Spec{Algo: "gtopk", Density: 0.1, HierGroup: 2, Quorum: quorum(0, 2, 0)}, "-leader-quorum requires -quorum and -hier-group"},
	} {
		err := tc.spec.Validate()
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %+v refused: %v", tc.rule, tc.spec, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: %+v: err = %v, want %q", tc.rule, tc.spec, err, tc.err)
		}
	}
}

// TestCheckQuorum holds the world-dependent quorum rules at worlds 4
// and 8: a flat quorum is a strict majority of the world, a
// hierarchical one a strict majority of a group (and the leader quorum
// of the groups), and a group that does not split the world takes no
// leader quorum.
func TestCheckQuorum(t *testing.T) {
	spec := func(algo string, g, q, leader int) Spec {
		return Spec{Algo: algo, Density: 0.1, HierGroup: g,
			Quorum: core.QuorumConfig{Q: q, LeaderQ: leader, Timeout: time.Second}}
	}
	for _, tc := range []struct {
		world int
		spec  Spec
		err   string
	}{
		{4, spec("gtopk", 0, 0, 0), ""},
		{4, spec("gtopk", 0, 3, 0), ""},
		{4, spec("gtopk", 0, 4, 0), ""},
		{4, spec("gtopk", 0, 2, 0), "-quorum 2 out of range [3,4] for a world of 4"},
		{4, spec("gtopk", 0, 5, 0), "-quorum 5 out of range [3,4]"},
		{4, spec("gtopk", 2, 2, 2), ""},
		{4, spec("gtopk-hier", 0, 3, 1), "degenerates to the flat tree"},
		{4, spec("gtopk", 4, 3, 0), ""},
		{8, spec("gtopk", 0, 5, 0), ""},
		{8, spec("gtopk", 0, 4, 0), "-quorum 4 out of range [5,8] for a world of 8"},
		{8, spec("gtopk-hier", 0, 3, 2), ""},
		{8, spec("gtopk-hier", 4, 2, 0), "-quorum 2 out of range [3,4] for -hier-group 4"},
		{8, spec("gtopk", 4, 5, 0), "-quorum 5 out of range [3,4] for -hier-group 4"},
		{8, spec("gtopk", 2, 2, 3), ""},
		{8, spec("gtopk", 2, 2, 2), "-leader-quorum 2 out of range [3,4] for 4 groups"},
		{8, spec("gtopk", 8, 5, 2), "degenerates to the flat tree"},
	} {
		err := tc.spec.CheckQuorum(tc.world)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("world %d, %+v refused: %v", tc.world, tc.spec, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("world %d, %+v: err = %v, want %q", tc.world, tc.spec, err, tc.err)
		}
	}
}

// TestRegisterFlags: each flag defaults to its field's value at
// registration and writes the field it is bound to.
func TestRegisterFlags(t *testing.T) {
	s := Spec{Algo: "gtopk", Density: 0.01, Wire: sparse.CodecV3}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.RegisterFlags(fs)
	for name, want := range map[string]string{"algo": "gtopk", "density": "0.01", "wire": "v3", "hier-group": "0",
		"quorum": "0", "leader-quorum": "0", "round-timeout": "0s"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	if err := fs.Parse([]string{"-algo", "gtopk-hier", "-density", "0.5", "-hier-group", "2", "-wire", "v3-qsgd8",
		"-quorum", "2", "-leader-quorum", "2", "-round-timeout", "1s"}); err != nil {
		t.Fatal(err)
	}
	want := Spec{Algo: "gtopk-hier", Density: 0.5, HierGroup: 2, Wire: sparse.CodecV3Q8,
		Quorum: core.QuorumConfig{Q: 2, LeaderQ: 2, Timeout: time.Second}}
	if s.Algo != want.Algo || s.Density != want.Density || s.HierGroup != want.HierGroup || s.Wire != want.Wire || s.Quorum != want.Quorum {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if err := fs.Parse([]string{"-wire", "v2"}); err == nil || !strings.Contains(err.Error(), "want v1, v3 or v3-<value codec>") {
		t.Fatalf("-wire v2: err = %v, want the codec rejection", err)
	}
	if s.Wire != sparse.CodecV3Q8 {
		t.Fatalf("a refused -wire changed the field to %v", s.Wire)
	}
	var zero Spec
	zfs := flag.NewFlagSet("zero", flag.ContinueOnError)
	zero.RegisterFlags(zfs)
	if got := zfs.Lookup("wire").DefValue; got != "v1" {
		t.Fatalf("-wire default for a zero Wire is %q, want v1", got)
	}
}

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
