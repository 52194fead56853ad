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

// TestFlagValidation: every invocation error must exit 2 and print both
// the reason and the usage text; unknown flags exit 2 via the flag
// package itself.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string // substring the diagnostic must contain
	}{
		{"no-mode", nil, "need either -coordinator (elastic mode) or -addrs"},
		{"empty-addrs-entry", []string{"-addrs", "a:1,,b:2"}, "entry 1 is empty"},
		{"rank-out-of-range", []string{"-addrs", "a:1,b:2", "-rank", "2"}, "-rank 2 out of range"},
		{"negative-rank", []string{"-addrs", "a:1", "-rank", "-1"}, "-rank -1 out of range"},
		{"bad-algo", []string{"-addrs", "a:1", "-algo", "sketchy"}, `unknown -algo "sketchy"`},
		{"bad-density", []string{"-addrs", "a:1", "-density", "1.5"}, "-density 1.5 out of range"},
		{"zero-density", []string{"-addrs", "a:1", "-density", "0"}, "-density 0 out of range"},
		{"bad-steps", []string{"-addrs", "a:1", "-steps", "0"}, "-steps 0 out of range"},
		{"bad-batch", []string{"-addrs", "a:1", "-batch", "0"}, "-batch 0 out of range"},
		{"bad-lr", []string{"-addrs", "a:1", "-lr", "-0.1"}, "-lr -0.1 out of range"},
		{"bad-timeout", []string{"-addrs", "a:1", "-timeout", "-1s"}, "-timeout -1s out of range"},
		{"bad-wire", []string{"-addrs", "a:1", "-wire", "v9"}, "-wire"},
		{"retired-wire-v2", []string{"-addrs", "a:1", "-wire", "v2-fp16"}, "want v1, v3 or v3-<value codec>"},
		{"retired-value-codec-flag", []string{"-addrs", "a:1", "-wire", "v3", "-value-codec", "qsgd8"}, "flag provided but not defined: -value-codec"},
		{"bad-select-shards", []string{"-addrs", "a:1", "-select-shards", "-2"}, "-select-shards -2 out of range"},
		{"bad-hier-group", []string{"-addrs", "a:1", "-hier-group", "-1"}, "-hier-group -1 out of range"},
		{"hier-group-needs-gtopk", []string{"-addrs", "a:1", "-algo", "dense", "-hier-group", "4"}, "-hier-group requires -algo gtopk"},
		{"negative-quorum", []string{"-addrs", "a:1", "-quorum", "-1"}, "-quorum -1 out of range"},
		{"quorum-needs-gtopk", []string{"-addrs", "a:1,b:2", "-algo", "dense", "-quorum", "2", "-round-timeout", "100ms"}, "-quorum requires -algo gtopk"},
		{"hier-quorum-below-group-majority", []string{"-addrs", "a:1,b:2,c:3,d:4,e:5,f:6,g:7,h:8", "-hier-group", "4", "-quorum", "2", "-round-timeout", "100ms"}, "-quorum 2 out of range [3,4] for -hier-group 4"},
		{"hier-quorum-above-group", []string{"-addrs", "a:1,b:2,c:3,d:4,e:5,f:6,g:7,h:8", "-hier-group", "4", "-quorum", "5", "-round-timeout", "100ms"}, "-quorum 5 out of range [3,4] for -hier-group 4"},
		{"leader-quorum-needs-hier", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "3", "-leader-quorum", "2", "-round-timeout", "100ms"}, "-leader-quorum requires -quorum and -hier-group"},
		{"leader-quorum-below-majority", []string{"-addrs", "a:1,b:2,c:3,d:4,e:5,f:6,g:7,h:8", "-hier-group", "2", "-quorum", "2", "-leader-quorum", "2", "-round-timeout", "100ms"}, "-leader-quorum 2 out of range [3,4] for 4 groups"},
		{"level-budgets-need-hier", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "20ms"}, "require -quorum and -hier-group"},
		{"level-budgets-all-or-none", []string{"-addrs", "a:1,b:2,c:3,d:4,e:5,f:6,g:7,h:8", "-hier-group", "4", "-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "20ms"}, "per-level budgets must all be set and positive"},
		{"level-budgets-exceed-round", []string{"-addrs", "a:1,b:2,c:3,d:4,e:5,f:6,g:7,h:8", "-hier-group", "4", "-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "50ms", "-leader-timeout", "50ms", "-verdict-timeout", "50ms"}, "exceed -round-timeout 100ms"},
		{"degenerate-hier-rejects-leader-quorum", []string{"-addrs", "a:1,b:2,c:3,d:4", "-hier-group", "4", "-quorum", "3", "-leader-quorum", "3", "-round-timeout", "100ms"}, "degenerates to the flat tree"},
		{"quorum-needs-timeout", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "3"}, "-quorum requires -round-timeout > 0"},
		{"negative-round-timeout", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "3", "-round-timeout", "-1s"}, "-quorum requires -round-timeout > 0"},
		{"round-timeout-needs-quorum", []string{"-addrs", "a:1,b:2", "-round-timeout", "100ms"}, "-round-timeout requires -quorum"},
		{"quorum-below-majority", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "2", "-round-timeout", "100ms"}, "-quorum 2 out of range [3,4]"},
		{"quorum-above-world", []string{"-addrs", "a:1,b:2,c:3,d:4", "-quorum", "5", "-round-timeout", "100ms"}, "-quorum 5 out of range [3,4]"},
		{"coordinator-needs-name", []string{"-coordinator", "h:1", "-checkpoint-dir", "/tmp/x"}, "-coordinator requires -name"},
		{"coordinator-needs-ckptdir", []string{"-coordinator", "h:1", "-name", "w0"}, "-coordinator requires -checkpoint-dir"},
		{"elastic-topk-rejected", []string{"-coordinator", "h:1", "-name", "w0", "-checkpoint-dir", "/tmp/x", "-algo", "topk"}, "not elastic-safe"},
		{"addrs-conflicts-coordinator", []string{"-coordinator", "h:1", "-name", "w0", "-checkpoint-dir", "/tmp/x", "-addrs", "a:1"}, "-addrs conflicts with -coordinator"},
		{"bad-kernels", []string{"-addrs", "a:1", "-kernels", "bogus"}, `-kernels: sparse: unknown kernel mode "bogus"`},
		{"unknown-flag", []string{"-no-such-flag"}, "flag provided but not defined"},
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
			if !strings.Contains(res.Stderr, "Usage") && !strings.Contains(res.Stderr, "-algo") {
				t.Fatalf("stderr lacks usage text: %q", res.Stderr)
			}
		})
	}
}
