package gtopkssgd

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// notCode is the ceilings' counting rule: a line that is blank or holds
// only a // comment is not code.
var notCode = regexp.MustCompile(`^\s*(//.*)?$`)

// codeLines counts the code lines of the non-test Go files in dirs.
func codeLines(t *testing.T, dirs ...string) int {
	t.Helper()
	n := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if !notCode.MatchString(sc.Text()) {
					n++
				}
			}
			f.Close() //nolint:errcheck // read-only
			if err := sc.Err(); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
	}
	return n
}

// TestCodeLineCeilings holds the packages that must not grow back to
// their ceilings: internal/core keeps one round and one gTop-k
// executor, the bench harness reports only modelled and counted numbers,
// internal/sparse has one kernel set and internal/tensor one GEMM set.
func TestCodeLineCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		dirs    []string
		ceiling int
	}{
		{"internal/core", []string{"internal/core"}, 1498},
		{"internal/bench + cmd/gtopk-bench", []string{"internal/bench", "cmd/gtopk-bench"}, 1888},
		{"internal/sparse", []string{"internal/sparse"}, 1390},
		{"internal/tensor", []string{"internal/tensor"}, 450},
	} {
		n := codeLines(t, c.dirs...)
		t.Logf("%s: %d non-test code lines, ceiling %d, headroom %d", c.name, n, c.ceiling, c.ceiling-n)
		if n > c.ceiling {
			t.Errorf("%s: %d non-test code lines exceed the ceiling of %d", c.name, n, c.ceiling)
		}
	}
}
