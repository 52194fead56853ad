package main

import (
	"os"
	"strings"
	"testing"

	"gtopkssgd/internal/clitest"
)

func TestMain(m *testing.M) {
	if clitest.InterceptMain() {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: invocation errors exit 2 with usage before any
// training starts.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"bad-model", []string{"-model", "gpt5"}, `unknown -model "gpt5"`},
		{"bad-algo", []string{"-algo", "magic"}, `unknown -algo "magic"`},
		{"zero-workers", []string{"-workers", "0"}, "-workers 0 out of range"},
		{"zero-batch", []string{"-batch", "0"}, "-batch 0 out of range"},
		{"zero-epochs", []string{"-epochs", "0"}, "-epochs/-iters must be >= 1"},
		{"zero-iters", []string{"-iters", "0"}, "-epochs/-iters must be >= 1"},
		{"bad-density", []string{"-density", "2"}, "-density 2 out of range"},
		{"bad-lr", []string{"-lr", "0"}, "-lr 0 out of range"},
		{"bad-eval", []string{"-eval", "-1"}, "-eval -1 out of range"},
		{"bad-hier-group", []string{"-hier-group", "-2"}, "-hier-group -2 out of range"},
		{"hier-group-needs-hier-algo", []string{"-algo", "dense", "-hier-group", "4"}, "-hier-group requires -algo gtopk, gtopk-hier or gtopk-quant8"},
		{"negative-quorum", []string{"-quorum", "-3"}, "-quorum -3 out of range"},
		{"quorum-needs-gtopk", []string{"-algo", "dense", "-quorum", "3", "-round-timeout", "50ms"}, "-quorum requires -algo gtopk"},
		{"negative-leader-quorum", []string{"-leader-quorum", "-1"}, "-leader-quorum -1 out of range"},
		{"leader-quorum-needs-hier-algo", []string{"-algo", "gtopk", "-workers", "8", "-quorum", "5", "-leader-quorum", "3", "-round-timeout", "50ms"}, "-leader-quorum requires -quorum and -hier-group"},
		{"hier-quorum-below-group-majority", []string{"-algo", "gtopk-hier", "-workers", "8", "-hier-group", "4", "-quorum", "2", "-round-timeout", "50ms"}, "-quorum 2 out of range [3,4] for -hier-group 4"},
		{"leader-quorum-below-majority", []string{"-algo", "gtopk-hier", "-workers", "8", "-hier-group", "2", "-quorum", "2", "-leader-quorum", "2", "-round-timeout", "50ms"}, "-leader-quorum 2 out of range [3,4] for 4 groups"},
		{"degenerate-hier-rejects-leader-quorum", []string{"-algo", "gtopk-hier", "-workers", "4", "-hier-group", "4", "-quorum", "3", "-leader-quorum", "1", "-round-timeout", "50ms"}, "degenerates to the flat tree"},
		{"quorum-below-majority", []string{"-workers", "4", "-quorum", "2", "-round-timeout", "50ms"}, "-quorum 2 out of range [3,4]"},
		{"quorum-above-world", []string{"-workers", "4", "-quorum", "5", "-round-timeout", "50ms"}, "-quorum 5 out of range [3,4]"},
		{"quorum-needs-timeout", []string{"-workers", "4", "-quorum", "3"}, "-quorum requires -round-timeout > 0"},
		{"zero-round-timeout", []string{"-workers", "4", "-quorum", "3", "-round-timeout", "0s"}, "-quorum requires -round-timeout > 0"},
		{"round-timeout-needs-quorum", []string{"-round-timeout", "50ms"}, "-round-timeout requires -quorum"},
		{"retired-wire-v2", []string{"-wire", "v2"}, "want v1, v3 or v3-<value codec>"},
		{"retired-wire-fp16", []string{"-wire", "v3-fp16"}, `invalid value "v3-fp16" for flag -wire`},
		{"retired-wire-qsgd4", []string{"-wire", "v3-qsgd4"}, `invalid value "v3-qsgd4" for flag -wire`},
		{"retired-value-codec-flag", []string{"-wire", "v3", "-value-codec", "qsgd8"}, "flag provided but not defined: -value-codec"},
		{"retired-kernels", []string{"-kernels", "pure"}, "flag provided but not defined: -kernels"},
		{"bad-wire", []string{"-wire", "v9"}, `invalid value "v9" for flag -wire`},
		{"unknown-flag", []string{"-warp-speed"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := clitest.Run(t, tc.args...)
			if res.Code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", res.Code, res.Stderr)
			}
			if !strings.Contains(res.Stderr, tc.stderr) {
				t.Fatalf("stderr %q missing %q", res.Stderr, tc.stderr)
			}
			if !strings.Contains(res.Stderr, "Usage") {
				t.Fatalf("stderr lacks usage text: %q", res.Stderr)
			}
		})
	}
}

// TestQuorumTrainingSmoke: a tiny full-sync quorum run completes — the
// -quorum/-round-timeout flags reach the aggregator.
func TestQuorumTrainingSmoke(t *testing.T) {
	res := clitest.Run(t, "-model", "mlp", "-algo", "gtopk", "-quorum", "4", "-round-timeout", "5s",
		"-workers", "4", "-epochs", "1", "-iters", "2", "-batch", "2", "-density", "0.05")
	if res.Code != 0 {
		t.Fatalf("exit %d (stderr: %s)", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "algo=gtopk") || !strings.Contains(res.Stdout, "epoch   1") {
		t.Fatalf("stdout missing training output:\n%s", res.Stdout)
	}
}

// TestHierQuorumTrainingSmoke: a tiny full-sync hierarchical quorum run
// completes — the -quorum/-leader-quorum/-round-timeout flags reach the
// hierarchical aggregator through TrainSpec.
func TestHierQuorumTrainingSmoke(t *testing.T) {
	res := clitest.Run(t, "-model", "mlp", "-algo", "gtopk-hier", "-hier-group", "2",
		"-quorum", "2", "-leader-quorum", "2", "-round-timeout", "5s",
		"-workers", "4", "-epochs", "1", "-iters", "2", "-batch", "2", "-density", "0.05")
	if res.Code != 0 {
		t.Fatalf("exit %d (stderr: %s)", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "algo=gtopk-hier") || !strings.Contains(res.Stdout, "epoch   1") {
		t.Fatalf("stdout missing training output:\n%s", res.Stdout)
	}
}

// TestFlatAlgoHierGroupTrainingSmoke: -hier-group runs the hierarchy
// under -algo gtopk too, as it does in gtopk-worker — the same losses
// and modelled time as gtopk-hier at the same group size, and at P=8,
// G=4 a modelled time the flat tree does not have.
func TestFlatAlgoHierGroupTrainingSmoke(t *testing.T) {
	run := func(name, workers string, flags ...string) string {
		res := clitest.Run(t, append([]string{"-model", "mlp", "-algo", name, "-workers", workers,
			"-epochs", "1", "-iters", "2", "-batch", "2", "-density", "0.05"}, flags...)...)
		if res.Code != 0 {
			t.Fatalf("%s %v: exit %d (stderr: %s)", name, flags, res.Code, res.Stderr)
		}
		if !strings.Contains(res.Stdout, "algo="+name+" ") || !strings.Contains(res.Stdout, "epoch   1") {
			t.Fatalf("%s %v: stdout missing training output:\n%s", name, flags, res.Stdout)
		}
		_, curve, _ := strings.Cut(res.Stdout, "\n")
		return curve
	}
	for _, tc := range []struct{ workers, group string }{{"4", "2"}, {"8", "4"}} {
		flat, hier := run("gtopk", tc.workers, "-hier-group", tc.group), run("gtopk-hier", tc.workers, "-hier-group", tc.group)
		if flat != hier {
			t.Fatalf("P=%s: gtopk -hier-group %s printed\n%s\nwant gtopk-hier's\n%s", tc.workers, tc.group, flat, hier)
		}
	}
	if run("gtopk", "8") == run("gtopk", "8", "-hier-group", "4") {
		t.Fatal("P=8: gtopk -hier-group 4 printed the flat tree's modelled time")
	}
}

// TestHierarchicalTrainingSmoke: a tiny gtopk-hier run completes and
// reports its loss curve — the -hier-group flag reaches the aggregator.
func TestHierarchicalTrainingSmoke(t *testing.T) {
	res := clitest.Run(t, "-model", "mlp", "-algo", "gtopk-hier", "-hier-group", "2",
		"-workers", "4", "-epochs", "1", "-iters", "2", "-batch", "2", "-density", "0.05")
	if res.Code != 0 {
		t.Fatalf("exit %d (stderr: %s)", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "algo=gtopk-hier") || !strings.Contains(res.Stdout, "epoch   1") {
		t.Fatalf("stdout missing training output:\n%s", res.Stdout)
	}
}
