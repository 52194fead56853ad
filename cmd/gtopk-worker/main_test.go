package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/clitest"
	"gtopkssgd/internal/cluster"
	"gtopkssgd/internal/transport"
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
	// join is a valid command line without the flags under test; every
	// row fails validation before the worker dials anything.
	join := func(args ...string) []string {
		return append([]string{"-coordinator", "h:1", "-name", "w0", "-checkpoint-dir", "ckpt"}, args...)
	}
	cases := []struct {
		name   string
		args   []string
		stderr string // substring the diagnostic must contain
	}{
		{"no-mode", nil, "need -coordinator"},
		{"coordinator-needs-name", []string{"-coordinator", "h:1", "-checkpoint-dir", "ckpt"}, "-coordinator requires -name"},
		{"coordinator-needs-ckptdir", []string{"-coordinator", "h:1", "-name", "w0"}, "-coordinator requires -checkpoint-dir"},
		{"bad-checkpoint-every", join("-checkpoint-every", "0"), "-checkpoint-every 0 out of range"},
		{"bad-algo", join("-algo", "sketchy"), `unknown -algo "sketchy"`},
		{"bad-density", join("-density", "1.5"), "-density 1.5 out of range"},
		{"zero-density", join("-density", "0"), "-density 0 out of range"},
		{"bad-steps", join("-steps", "0"), "-steps 0 out of range"},
		{"bad-batch", join("-batch", "0"), "-batch 0 out of range"},
		{"bad-lr", join("-lr", "-0.1"), "-lr -0.1 out of range"},
		{"bad-timeout", join("-timeout", "-1s"), "-timeout -1s out of range"},
		{"bad-wire", join("-wire", "v9"), "-wire"},
		{"retired-wire-v2", join("-wire", "v2-fp16"), "want v1, v3 or v3-<value codec>"},
		{"retired-wire-fp16", join("-wire", "v3-fp16"), `invalid value "v3-fp16" for flag -wire`},
		{"retired-wire-qsgd4", join("-wire", "v3-qsgd4"), `invalid value "v3-qsgd4" for flag -wire`},
		{"retired-value-codec-flag", join("-wire", "v3", "-value-codec", "qsgd8"), "flag provided but not defined: -value-codec"},
		{"bad-hier-group", join("-hier-group", "-1"), "-hier-group -1 out of range"},
		{"hier-group-needs-gtopk", join("-algo", "dense", "-hier-group", "4"), "-hier-group requires -algo gtopk"},
		{"negative-quorum", join("-quorum", "-1"), "-quorum -1 out of range"},
		{"quorum-needs-gtopk", join("-algo", "dense", "-quorum", "2", "-round-timeout", "100ms"), "-quorum requires -algo gtopk"},
		{"leader-quorum-needs-hier", join("-quorum", "3", "-leader-quorum", "2", "-round-timeout", "100ms"), "-leader-quorum requires -quorum and -hier-group"},
		// Level budgets are not flags: a hierarchical quorum splits
		// -round-timeout 1/4:1/2:1/4 across its levels.
		{"level-budgets-need-hier", join("-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "20ms"), "flag provided but not defined: -group-timeout"},
		{"level-budgets-all-or-none", join("-hier-group", "4", "-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "20ms"), "flag provided but not defined: -group-timeout"},
		{"level-budgets-exceed-round", join("-hier-group", "4", "-quorum", "3", "-round-timeout", "100ms", "-group-timeout", "50ms", "-leader-timeout", "50ms", "-verdict-timeout", "50ms"), "flag provided but not defined: -group-timeout"},
		{"quorum-needs-timeout", join("-quorum", "3"), "-quorum requires -round-timeout > 0"},
		{"negative-round-timeout", join("-quorum", "3", "-round-timeout", "-1s"), "-quorum requires -round-timeout > 0"},
		{"round-timeout-needs-quorum", join("-round-timeout", "100ms"), "-round-timeout requires -quorum"},
		// Static-mode command lines (-addrs, -rank) are refused outright:
		// the coordinator assigns ranks and addresses.
		{"addrs-conflicts-coordinator", join("-addrs", "a:1,b:2"), "flag provided but not defined: -addrs"},
		{"empty-addrs-entry", join("-addrs", "a:1,,b:2"), "flag provided but not defined: -addrs"},
		{"negative-rank", join("-rank", "-1"), "flag provided but not defined: -rank"},
		{"rank-out-of-range", join("-rank", "2"), "flag provided but not defined: -rank"},
		{"retired-checkpoint", join("-checkpoint", "w0.gtkc"), "flag provided but not defined: -checkpoint"},
		{"retired-kernels", join("-kernels", "pure"), "flag provided but not defined: -kernels"},
		{"retired-tcp-nodelay", join("-tcp-nodelay=false"), "flag provided but not defined: -tcp-nodelay"},
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

	// The quorum ranges need the world size, which a worker learns from
	// its first epoch's configuration: each of these rows joins a world
	// of that size, and the epoch's build refuses the flags (exit 1)
	// before the first step.
	worldCases := []struct {
		name   string
		world  int
		args   []string
		stderr string
	}{
		{"quorum-below-majority", 4, []string{"-quorum", "2", "-round-timeout", "100ms"}, "-quorum 2 out of range [3,4]"},
		{"quorum-above-world", 4, []string{"-quorum", "5", "-round-timeout", "100ms"}, "-quorum 5 out of range [3,4]"},
		{"hier-quorum-below-group-majority", 8, []string{"-hier-group", "4", "-quorum", "2", "-round-timeout", "100ms"}, "-quorum 2 out of range [3,4] for -hier-group 4"},
		{"hier-quorum-above-group", 8, []string{"-hier-group", "4", "-quorum", "5", "-round-timeout", "100ms"}, "-quorum 5 out of range [3,4] for -hier-group 4"},
		{"leader-quorum-below-majority", 8, []string{"-hier-group", "2", "-quorum", "2", "-leader-quorum", "2", "-round-timeout", "100ms"}, "-leader-quorum 2 out of range [3,4] for 4 groups"},
		{"degenerate-hier-rejects-leader-quorum", 4, []string{"-hier-group", "4", "-quorum", "3", "-leader-quorum", "3", "-round-timeout", "100ms"}, "degenerates to the flat tree"},
	}
	for _, tc := range worldCases {
		t.Run(tc.name, func(t *testing.T) {
			coord := startPeers(t, tc.world-1)
			res := clitest.Run(t, append([]string{"-coordinator", coord, "-name", "w0",
				"-checkpoint-dir", t.TempDir(), "-timeout", "10s"}, tc.args...)...)
			if res.Code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", res.Code, res.Stderr)
			}
			for _, want := range []string{"epoch 1 build: ", tc.stderr} {
				if !strings.Contains(res.Stderr, want) {
					t.Fatalf("stderr %q missing %q", res.Stderr, want)
				}
			}
		})
	}
}

// startPeers serves a coordinator on a loopback listener for a world of
// n+1 and joins n stand-in members to it, returning the control address
// at which the last member joins. The stand-ins wire the first epoch's
// mesh and hold it until the test ends; they never train, so the world
// forms around the worker under test without any other worker process.
func startPeers(t *testing.T, n int) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{World: n + 1})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.Serve(ctx, ln) //nolint:errcheck // stopped by the test's cleanup
	}()
	for i := range n {
		data, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m, err := cluster.Join(ctx, ln.Addr().String(), fmt.Sprintf("peer%d", i), data.Addr().String())
		if err != nil {
			data.Close() //nolint:errcheck // error path
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer data.Close() //nolint:errcheck // stand-in teardown
			defer m.Close()    //nolint:errcheck // stand-in teardown
			conf, changed := m.Config()
			for conf == nil {
				select {
				case <-changed:
					conf, changed = m.Config()
				case <-ctx.Done():
					return
				}
			}
			conn, err := transport.JoinMesh(ctx, transport.MeshConfig{
				Rank: conf.Rank, Addrs: conf.Addrs, Epoch: conf.Epoch, Listener: data,
			})
			if err != nil {
				return // the test ended before the mesh formed
			}
			defer conn.Close() //nolint:errcheck // stand-in teardown
			<-ctx.Done()
		}()
	}
	return ln.Addr().String()
}

// TestWorkersTrainUnderCoordinator drives the one worker path end to
// end: a coordinator on a loopback listener and two worker processes
// that join it, train six steps over a real TCP mesh and leave. Each
// exits 0, rank 0 reports the replica check, the coordinator's Serve
// returns once the job is done, and -trace writes its CSV.
func TestWorkersTrainUnderCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"gtopk-v3", []string{"-algo", "gtopk", "-wire", "v3"}},
		{"topk", []string{"-algo", "topk"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{World: 2})
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- coord.Serve(ctx, ln) }()

			dir := t.TempDir()
			traceCSV := filepath.Join(dir, "w0.csv")
			// Name order makes w0 rank 0, the rank that reports.
			names := []string{"w0", "w1"}
			out := make([]clitest.Result, len(names))
			t.Run("workers", func(t *testing.T) {
				for i, name := range names {
					args := append([]string{"-coordinator", ln.Addr().String(), "-name", name,
						"-checkpoint-dir", dir, "-steps", "6"}, tc.args...)
					if name == "w0" {
						args = append(args, "-trace", traceCSV)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						res := clitest.Run(t, args...)
						if res.Code != 0 {
							t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.Code, res.Stdout, res.Stderr)
						}
						out[i] = res
					})
				}
			})
			if t.Failed() {
				return
			}
			if !strings.Contains(out[0].Stdout, "replicas CONSISTENT across 2 workers") {
				t.Errorf("rank 0 stdout lacks the consistency line:\n%s", out[0].Stdout)
			}
			if strings.Contains(out[1].Stdout, "replicas CONSISTENT") {
				t.Errorf("rank 1 reported the consistency line:\n%s", out[1].Stdout)
			}
			if err := <-served; err != nil {
				t.Fatalf("Serve = %v", err)
			}
			csv, err := os.ReadFile(traceCSV)
			if err != nil {
				t.Fatal(err)
			}
			// A header, then compute, aggregate and update for each step.
			if lines := strings.Count(string(csv), "\n"); lines != 1+3*6 {
				t.Fatalf("-trace wrote %d lines, want %d:\n%s", lines, 1+3*6, csv)
			}
		})
	}
}
