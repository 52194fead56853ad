package gtopkssgd

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// replicatedFuncs are the functions every replica runs on the same
// inputs and must round the same way on every architecture: the
// trainer tail, its momentum loop and the TernGrad sum. Each writes its
// multiply-adds with an explicit float32 conversion of the product,
// which the Go spec says forbids fusing it into the add.
var replicatedFuncs = []string{
	"gtopkssgd/internal/tensor.AxpyInto",
	"gtopkssgd/internal/tensor.ClipAxpyAt",
	"gtopkssgd/internal/core.(*Trainer).momentumStep",
	"gtopkssgd/internal/quant.addTernary",
}

// fusedOp matches the fused multiply-add mnemonics arm64, ppc64le and
// s390x assembly listings use (FMADDS, FNMSUBS, FMADD, ...).
var fusedOp = regexp.MustCompile(`\tFN?M(ADD|SUB)[SD]?\t`)

// fusedFuncs compiles the module's internal packages for goarch and
// returns which of funcs the compiler emitted a fused multiply-add in.
func fusedFuncs(t *testing.T, goarch string, funcs []string) []string {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=gtopkssgd/internal/...=-S", "./internal/quant")
	cmd.Env = append(os.Environ(), "GOARCH="+goarch, "CGO_ENABLED=0")
	var listing bytes.Buffer
	cmd.Stderr = &listing
	if err := cmd.Run(); err != nil {
		t.Fatalf("GOARCH=%s go build: %v\n%s", goarch, err, listing.Bytes())
	}
	want := make(map[string]bool)
	for _, f := range funcs {
		want[f] = true
	}
	seen := make(map[string]bool)
	var fused []string
	fn := ""
	sc := bufio.NewScanner(&listing)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, _, ok := strings.Cut(line, " STEXT "); ok && !strings.HasPrefix(line, "\t") {
			fn = name
			seen[fn] = true
			continue
		}
		if want[fn] && fusedOp.MatchString(line) {
			fused = append(fused, fn)
			want[fn] = false // report each function once
		}
	}
	for _, f := range funcs {
		if !seen[f] {
			t.Fatalf("GOARCH=%s: no listing for %s; point replicatedFuncs at the renamed function", goarch, f)
		}
	}
	return fused
}

// TestReplicatedPathNeverFuses compiles the replicated path for the
// architectures whose compilers fuse float32 multiply-adds and fails if
// any of replicatedFuncs contains a fused instruction: a fused
// dst[i] += alpha*v rounds once where amd64 rounds twice, so replicas
// on mixed hardware would drift apart bit by bit.
func TestReplicatedPathNeverFuses(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	for _, goarch := range []string{"arm64", "ppc64le", "s390x"} {
		if fused := fusedFuncs(t, goarch, replicatedFuncs); len(fused) > 0 {
			t.Errorf("GOARCH=%s fuses a multiply-add in %s: convert the product to float32 before the add", goarch, strings.Join(fused, ", "))
		}
	}
}
