package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gtopkssgd/internal/bench"
	"gtopkssgd/internal/clitest"
)

func TestMain(m *testing.M) {
	if clitest.InterceptMain() {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: invocation errors exit 2 with usage.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no-mode", nil, "one of -exp, -list or -all is required"},
		{"bad-hier-group-negative", []string{"-exp", "hierarchy", "-hier-group", "-3"}, "-hier-group -3 out of range"},
		{"bad-hier-group-one", []string{"-exp", "hierarchy", "-hier-group", "1"}, "-hier-group 1 out of range"},
		{"unknown-flag", []string{"-frobnicate"}, "flag provided but not defined"},
		// The four flags that only steered the deleted timing harness.
		{"retired-wire", []string{"-exp", "codec-bytes", "-wire", "v1"}, "flag provided but not defined: -wire"},
		{"retired-tcp-nodelay", []string{"-exp", "codec-bytes", "-tcp-nodelay"}, "flag provided but not defined: -tcp-nodelay"},
		{"retired-select-shards", []string{"-exp", "codec-bytes", "-select-shards", "2"}, "flag provided but not defined: -select-shards"},
		{"retired-kernels", []string{"-list", "-kernels", "pure"}, "flag provided but not defined: -kernels"},
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
		})
	}
}

// TestUnknownExperimentListsSorted: an unknown -exp must exit 2 and
// enumerate every registered experiment in sorted order — the listing
// must not depend on registration order.
func TestUnknownExperimentListsSorted(t *testing.T) {
	res := clitest.Run(t, "-exp", "definitely-not-an-experiment")
	if res.Code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stderr, `unknown experiment "definitely-not-an-experiment"`) {
		t.Fatalf("stderr %q lacks the unknown-experiment diagnostic", res.Stderr)
	}
	var listed []string
	for _, e := range bench.Experiments() {
		if !strings.Contains(res.Stderr, e.ID) {
			t.Fatalf("stderr does not list experiment %q", e.ID)
		}
		listed = append(listed, e.ID)
	}
	if !sort.StringsAreSorted(listed) {
		t.Fatalf("bench.Experiments() not sorted: %v", listed)
	}
	// The inline "(try: ...)" hint must also be sorted.
	tryIdx := strings.Index(res.Stderr, "(try: ")
	if tryIdx < 0 {
		t.Fatalf("stderr %q lacks the (try: ...) hint", res.Stderr)
	}
	hint := res.Stderr[tryIdx+len("(try: "):]
	hint = hint[:strings.Index(hint, ")")]
	ids := strings.Split(hint, ", ")
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("(try: ...) hint not sorted: %v", ids)
	}
	if len(ids) != len(bench.Experiments()) {
		t.Fatalf("hint lists %d experiments, registry has %d", len(ids), len(bench.Experiments()))
	}
}

// TestListEnumeratesExperiments: -list exits 0 and prints the catalogue,
// the artifact experiments included.
func TestListEnumeratesExperiments(t *testing.T) {
	res := clitest.Run(t, "-list")
	if res.Code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", res.Code, res.Stderr)
	}
	for _, id := range []string{"codec-bytes", "hierarchy", "fig9"} {
		if !strings.Contains(res.Stdout, id) {
			t.Fatalf("-list output missing %q:\n%s", id, res.Stdout)
		}
	}
}

// TestQuickRunNeverClobbersArtifact: a -quick run is not the committed
// configuration, so it must not write BENCH_gtopk.json into the working
// directory (run from the repo root, that is the committed artifact); it
// writes only where -json points, and then exactly its own section.
func TestQuickRunNeverClobbersArtifact(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	assertEmpty := func(t *testing.T) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("run left %s in its working directory", e.Name())
		}
	}

	t.Run("no-json-no-file", func(t *testing.T) {
		res := clitest.Run(t, "-exp", "quorum", "-quick")
		if res.Code != 0 {
			t.Fatalf("exit %d, want 0 (stderr: %s)", res.Code, res.Stderr)
		}
		if !strings.Contains(res.Stdout, "speedup vs q=P") || !strings.Contains(res.Stdout, "nothing written") {
			t.Fatalf("stdout lacks the table or the nothing-written line:\n%s", res.Stdout)
		}
		assertEmpty(t)
	})

	t.Run("json-names-the-file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "x.json")
		res := clitest.Run(t, "-exp", "quorum", "-quick", "-json", path)
		if res.Code != 0 {
			t.Fatalf("exit %d, want 0 (stderr: %s)", res.Code, res.Stderr)
		}
		assertEmpty(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		keys := slices.Sorted(maps.Keys(doc))
		if want := []string{"go_version", "goarch", "goos", "quorum", "schema", "seed"}; !slices.Equal(keys, want) {
			t.Fatalf("artifact keys %v, want the environment stamp plus exactly the quorum section %v", keys, want)
		}
		var quorum struct {
			Kinds map[string]string `json:"kinds"`
			Rows  []map[string]any  `json:"rows"`
		}
		if err := json.Unmarshal(doc["quorum"], &quorum); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"missed_rounds": "count", "sim_us": "modelled", "speedup": "modelled"}
		if !maps.Equal(quorum.Kinds, want) {
			t.Fatalf("quorum kinds %v, want %v", quorum.Kinds, want)
		}
		if len(quorum.Rows) < 2 {
			t.Fatalf("quorum section has %d rows, want the q=P anchor plus a q<P row", len(quorum.Rows))
		}
	})
}
