package gtopkssgd

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
// their ceilings: internal/core keeps one round and one sparse
// executor, which runs every aggregator's plan and prices it level by
// level, internal/netsim the
// α-β models and no per-variant round price, the bench harness reports
// only modelled and counted numbers and runs one quorum sweep,
// internal/sparse has one kernel set, internal/tensor one GEMM set,
// internal/transport one mesh handshake and, with internal/collective,
// one frame per send, internal/cluster and cmd/gtopk-worker one worker
// path and one membership state machine, internal/algo one algorithm configuration that both commands
// register, and internal/quant only the quantizers an aggregator or the
// wire transform calls. A package's pin file (benchpins.go) counts
// toward its ceiling.
func TestCodeLineCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		dirs    []string
		ceiling int
	}{
		{"internal/core", []string{"internal/core"}, 1323},
		{"internal/bench + cmd/gtopk-bench", []string{"internal/bench", "cmd/gtopk-bench"}, 1660},
		{"internal/sparse", []string{"internal/sparse"}, 1296},
		{"internal/tensor", []string{"internal/tensor"}, 441},
		{"internal/transport", []string{"internal/transport"}, 902},
		{"internal/collective", []string{"internal/collective"}, 641},
		{"internal/netsim", []string{"internal/netsim"}, 138},
		{"internal/cluster", []string{"internal/cluster"}, 1112},
		{"cmd/gtopk-worker", []string{"cmd/gtopk-worker"}, 165},
		{"cmd/gtopk-train", []string{"cmd/gtopk-train"}, 82},
		{"internal/algo", []string{"internal/algo"}, 191},
		{"internal/quant", []string{"internal/quant"}, 291},
	} {
		n := codeLines(t, c.dirs...)
		t.Logf("%s: %d non-test code lines, ceiling %d, headroom %d", c.name, n, c.ceiling, c.ceiling-n)
		if n > c.ceiling {
			t.Errorf("%s: %d non-test code lines exceed the ceiling of %d", c.name, n, c.ceiling)
		}
	}
}

// banned is the ban table: each row lists the identifiers a change
// retired when it made two paths one, and says why they stay gone. An
// entry matches every identifier of that name; a "*." entry matches
// only a package-level one — declared outside any type, or selected
// through an import — so a method or field of the same name stays
// legal; a "*name*" entry matches every identifier that contains name.
var banned = []struct {
	why   string
	names []string
}{
	{"one algorithm configuration: algo.Spec declares, registers and validates every algorithm setting, bench.TrainSpec embeds it, TCP_NODELAY and the 64 KiB link buffer are fixed, and the quantizers nothing but their tests called are gone (the shipped transforms are quant.Stack)",
		[]string{"DisableNoDelay", "WriteBufBytes", "algoSpec", "*.QuantizeSparseF16", "*.DequantizeUniform", "*.CompressionRatio", "*.RoundTripF16"}},
	{"one deployment path: every TCP mesh is wired by transport.JoinMesh's handshake and every gtopk-worker runs the elastic runtime (cluster.Run); the static worker mode, NewTCPWorker, the autoscale policy knob and the caller-less DegradedGroups are gone",
		[]string{"NewTCPWorker", "runStatic", "AutoscalePolicy", "GrowWhenHeartbeatLagged", "DegradedGroups"}},
	{"one gTop-k executor: the flat tree and the hierarchy are two lists of levels for runLevels; the tree's own broadcast, the result-allocating GTopKAllReduce and the facade's collective re-exports are gone (call core.GTopKInto)",
		[]string{"*.GTopKAllReduce", "bcastSparseChunks", "NewInProcFabric", "NewComm", "TopKSelect"}},
	{"one update contract: every Aggregate returns core.Update (At == nil is dense), the trainer keeps one tail, and no dense view, second sparse face or caller-less constructor comes back",
		[]string{"*SparseUpdater*", "*AggregateSparse*", "*denseView*", "*MeanIntoSparse*", "*applyDense*", "*NewLayerwiseGTopKAggregator*", "*NewHierarchicalBucketedAggregator*"}},
	{"code with no caller or no measured benefit goes: the one-step-stale pipelined trainer and the adaptive-density controller are gone (streamed buckets are the measured overlap; SetDensitySchedule is the density warmup)",
		[]string{"*PipelinedTrainer*", "*DensityController*", "*BucketKs*", "*ControlLag*", "*AdaptiveDensity*"}},
	{"gtopk-quant8 is gtopk over the v3-qsgd8 codec (algo.Build attaches it), its bytes counted on the wire",
		[]string{"*QuantizedGTopKAggregator*"}},
	{"one select path: the sparsifier accumulates and collects the candidates in one pass (sparse.TopKAccumulateInto); sharded selection and the separate momentum fold are gone",
		[]string{"*ShardSelector*", "*SetShards*", "*MomentumAddInto*"}},
	{"a frame's size is what encoding it writes (sparse.EncodedSize for v1): the exact-size predictors that only their own tests called are gone",
		[]string{"*.EncodedSizeCodec", "*.encodedSizeV3"}},
	{"code with no caller goes: the dense wire format nothing but its own test encoded or decoded is gone (the ring AllReduce frames its chunks with collective's own encodeF32)",
		[]string{"*.EncodeDense", "*.DecodeDense"}},
	{"the quantized baselines fold each gathered frame straight into grad (addSigns, addTernary): the decoders that built a dim-length slice per rank and step are gone",
		[]string{"*.UnpackSigns", "*.encodeTernary", "*.decodeTernary"}},
	{"one frame per hop (the paper's one message per tree hop, Eq. 7): the chunk pipeline, whose frames were sent in one vectored send and folded only after the last arrived, and the vectored-send capability only it used are gone",
		[]string{"DefaultChunks", "VectoredSender", "SendVecPooled", "SendTagVecPooled", "depositBatch", "iovecPool", "sendSparseChunks", "*.AppendEntries"}},
	{"quorum rounds run on the one gTop-k executor: a quorum is a level's participation rule (level.quorum), the verdict wait is one deadline (verdictWait) — a frame waits queued under its (src, tag), so a retried receive is one longer wait — and the quorum collective's own legs, the retry receive, the allocating flat wrapper and the accessors only their tests called are gone (call core.HierQuorumGTopKAllReduceInto with nil groups)",
		[]string{"quorumLeader", "recvVerdict", "fanOut", "foldQuorumFrames", "splitVerdict", "verdictRetryPolicy", "verdictAttempts", "minVerdictBackoff", "RecvTagRetry", "RecvTagContext", "RetryPolicy", "ErrDeadline", "QuorumGTopKAllReduce", "Links", "IsLeader"}},
	{"one quorum price: runLevels charges a quorum plan level by level from the verdict's participant set (chargeQuorum, one collective.Comm.ChargeLeg per leg), so the closed-form round prices, the hierarchy shape they re-derived and the second quorum runner are gone, with the clock, tensor and cluster exports nothing called (LinkModel.QuorumGather and QuorumRound are not listed: Comm.QuorumGather and collective.QuorumRound stay)",
		[]string{"ChargeQuorumRound", "ChargeHierQuorumRound", "QuorumVerdict", "HierQuorumGather", "HierQuorumVerdict", "HierQuorumRound", "hierLeader", "runQuorumConfig", "runQuorumHierConfig", "AdvanceTo", "*.Fill", "*.ShardRange"}},
	{"one gTop-k tree entry point: core.GTopKInto runs the flat tree (nil groups) and the hierarchy and takes no chunks argument; the chunks-taking forms are benchmark pins in core/benchpins.go, so the check that refused chunks other than 1 left the engine",
		[]string{"oneFrame"}},
	{"one momentum rule: algo.Build returns (core.Aggregator, error); momentum lives in TrainConfig.Momentum, not in algo.Spec or a second Build result",
		[]string{"trainerMomentum"}},
	{"code with no caller goes: the tanh activation layer no model built is gone (Tanh itself is not listed: the LSTM calls math.Tanh)",
		[]string{"NewTanh"}},
	{"two wire formats, one value preference: wire format v2 and the fp16 toggle are gone; a codec is v1 or v3 × value codec, attached with quant.AttachStack",
		[]string{"CodecV2", "WireV2", "SetFP16Values", "RewritesSender"}},
	{"every sparse aggregator is a plan for the one executor: Top-k and naive gTop-k are an exchange level (Comm.AllGather) folded by Σ, PS gTop-k a gather level at rank 0 folded by Σ then top-k, so their own collectives and the round's collective switch are gone (call core.TopKUnionInto, or build the aggregator; netsim.Model.TopKAllReduce, Eq. 6's price, stays)",
		[]string{"*.TopKAllReduce", "*.NaiveGTopKAllReduce", "*.PSGTopKAllReduce", "collectiveKind", "unionKind", "naiveKind", "psKind", "treeKind"}},
	{"one membership state machine: every coordinator decision is coordState.apply's, an event in and actions out, and the Coordinator only moves bytes; the locked membership methods and the welcome gate are gone with the state mutex (Coordinator.Epoch, which nothing called, is gone too; Epoch is not listed: Config.Epoch stays)",
		[]string{"formEpochLocked", "abortLocked", "maybeGrowLocked", "maybeFinishLocked", "maybeStart", "reportDown", "closeAllConns"}},
	{"a lossy value codec ships only where its bytes fall: fp16 moved more bytes than qsgd8 and qsgd4 fewer than 25 % less, so both left the v3 frame (value bytes 1 and 3 are refused), the quantizer and -wire, and the binary16 package f16 went with them; every lossy codec is a quantizer that ships (scale, levels)",
		[]string{"ValueF16", "ValueQ4", "CodecV3F16", "CodecV3Q4", "f16", "halfValues", "valueCodecCount"}},
	{"code with no caller goes: the put-back switch only the residual ablation set, the fault plan's drop knobs (the stall knobs are the same arithmetic), the barrier and the quorum's explicit per-level budgets (one round deadline splits by SplitLevels) are gone (metrics.Speedup is gone too; Speedup is not listed: the bench rows keep a Speedup field)",
		[]string{"DisablePutBack", "SetPutBack", "noPutBack", "ablationResidual", "DropEvery", "DropPenalty", "Barrier", "quorumHierLevels"}},
}

// bannedMatch reports whether an identifier called name matches a ban
// entry; member marks a method, a field or a selection from a value.
func bannedMatch(entry, name string, member bool) bool {
	if sub, ok := strings.CutPrefix(entry, "*"); ok && len(sub) > 1 && strings.HasSuffix(sub, "*") {
		return strings.Contains(name, strings.TrimSuffix(sub, "*"))
	}
	if bare, ok := strings.CutPrefix(entry, "*."); ok {
		return name == bare && !member
	}
	return name == entry
}

// bannedHits returns one line per identifier in f that matches a row of
// the ban table.
func bannedHits(fset *token.FileSet, f *ast.File) []string {
	imports := make(map[string]bool, len(f.Imports))
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		if im.Name != nil {
			imports[im.Name.Name] = true
		} else {
			imports[path.Base(p)] = true
		}
	}
	// members are the identifiers that name a method, a field or a
	// selection from a value: the ones a "*." entry leaves alone.
	members := make(map[*ast.Ident]bool)
	markFields := func(fl *ast.FieldList) {
		for _, field := range fl.List {
			for _, id := range field.Names {
				members[id] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			members[n.Name] = n.Recv != nil
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); !ok || !imports[x.Name] {
				members[n.Sel] = true
			}
		case *ast.StructType:
			markFields(n.Fields)
		case *ast.InterfaceType:
			markFields(n.Methods)
		}
		return true
	})
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		for _, row := range banned {
			for _, entry := range row.names {
				if bannedMatch(entry, id.Name, members[id]) {
					hits = append(hits, fmt.Sprintf("%s: %s: %s", fset.Position(id.Pos()), id.Name, row.why))
				}
			}
		}
		return true
	})
	return hits
}

// TestBannedIdentifiers fails when a Go file anywhere in the module,
// test files included, declares or references an identifier of the ban
// table. It first plants every entry in scratch sources to prove the
// rule fires — a "*name*" entry also inside a longer identifier — and a
// "*." entry's name as a method, a field and a selection from a value
// to prove it stays quiet there.
func TestBannedIdentifiers(t *testing.T) {
	hits := func(src string) int {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "planted.go", "package p\n"+src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return len(bannedHits(fset, f))
	}
	for _, row := range banned {
		for _, entry := range row.names {
			name, pkgLevel := strings.CutPrefix(entry, "*.")
			name, contains := strings.CutPrefix(strings.TrimSuffix(name, "*"), "*")
			if hits("func "+name+"() {}") != 1 || hits("import \"gtopkssgd/internal/core\"\nvar _ = core."+name) != 1 {
				t.Errorf("the ban rule misses a planted %s", entry)
			}
			if contains && hits("func x"+name+"Y() {}") != 1 {
				t.Errorf("the ban rule misses an identifier containing %s", entry)
			}
			member := "type T struct{ " + name + " int }\nfunc (T) " + name + "() {}\nvar _ = T{}." + name
			if want := map[bool]int{false: 3, true: 0}[pkgLevel]; hits(member) != want {
				t.Errorf("the ban rule finds %d of %s's methods, fields and selections, want %d", hits(member), entry, want)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, hit := range bannedHits(fset, f) {
			t.Error(hit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// textRule is a rule over the text of the module's Go files, as grep
// reads it (comments and build tags included): a file outside the
// exempt paths breaks it when it matches every pattern. A rule reads
// the non-test files only, unless tests is set.
type textRule struct {
	why    string
	exempt []string
	tests  bool
	match  []*regexp.Regexp
}

var textRules = []textRule{
	{"the dense MeanInto is the test reference: core.round takes the mean at the k global entries, and no code scatters an update into a dense buffer",
		[]string{"internal/sparse/"}, false, []*regexp.Regexp{regexp.MustCompile(`\.MeanInto\(`)}},
	{"a second algorithm-name switch building aggregators: build through algo.Build",
		[]string{"internal/algo/", "benchmark/"}, false, []*regexp.Regexp{regexp.MustCompile(`case "gtopk"`), regexp.MustCompile(`New[A-Za-z]*Aggregator\(`)}},
	{"ask sparse.Codec (Lossy, DecodeFrame) instead of re-deriving the answer from WireVersion()",
		[]string{"internal/sparse/", "benchmark/"}, false, []*regexp.Regexp{regexp.MustCompile(`WireVersion\(\) (== 3 &&|!= 3 \|\|)`)}},
	{"the -value-codec flag is gone: a codec is v1 or v3 x value codec, named by -wire (the v2 identifiers are rows of TestBannedIdentifiers)",
		[]string{"benchmark/"}, false, []*regexp.Regexp{regexp.MustCompile(`"value-codec"`)}},
	{"a measured number comes from benchmark/ (whole step) or go test -bench (kernels): gtopk-bench reports only modelled and counted numbers, and production code carries no harness-only timing toggles",
		[]string{"benchmark/"}, false, []*regexp.Regexp{regexp.MustCompile(`ns_per_op|NsPerOp|baselineHotPath|prevHotPath|SetTimed|SetSequential|testing\.Benchmark\(`)}},
	{"one kernel set: each internal/sparse kernel has one portable implementation; no process-wide kernel mode, -kernels flag or purego build tag, in test files too (this file, which states the rule, is exempt)",
		[]string{"ceilings_test.go"}, true, []*regexp.Regexp{regexp.MustCompile(`SetKernels|FastKernelsAvailable|DefaultKernels|fastEnabled|KernelsPure|purego`)}},
}

// textFaults returns one line per rule of textRules that the Go file at
// p, holding src, breaks.
func textFaults(p string, src []byte) []string {
	var faults []string
	test := strings.HasSuffix(p, "_test.go")
	for _, rule := range textRules {
		hit := rule.tests || !test
		hit = hit && !slices.ContainsFunc(rule.exempt, func(dir string) bool { return strings.HasPrefix(filepath.ToSlash(p), dir) })
		for _, re := range rule.match {
			hit = hit && re.Match(src)
		}
		if hit {
			faults = append(faults, p+": "+rule.why)
		}
	}
	return faults
}

// TestTextRules fails when a Go file anywhere in the module breaks a
// rule of textRules. It first plants files that break each rule, and
// the same files where the rule does not apply — an exempt path, or a
// test file for a rule of non-test files — to prove each rule fires
// where it applies and only there.
func TestTextRules(t *testing.T) {
	const mean, sw = "u.MeanInto(dst, 4)\n", "switch a {\ncase \"gtopk\":\n\tcore.NewGTopKAggregator(c, 8, 1)\n}\n"
	const wire, flag = "if c.WireVersion() == 3 && lossy {\n}\n", "flag.String(\"value-codec\", \"\", \"\")\n"
	const timing, kernels, tag = "r := testing.Benchmark(f)\n", "sparse.SetKernels(k)\n", "//go:build !purego\n\npackage sparse\n"
	for _, c := range []struct {
		path, src string
		want      int
	}{
		{"internal/core/planted.go", mean, 1}, {"internal/sparse/planted.go", mean, 0}, {"cmd/x/planted.go", mean + sw, 2},
		{"internal/bench/planted.go", sw, 1}, {"internal/bench/planted.go", "switch a {\ncase \"gtopk\":\n}\n", 0},
		{"internal/algo/planted.go", sw, 0}, {"benchmark/planted.go", sw, 0}, {"internal/core/planted_test.go", mean, 0},
		{"internal/core/planted.go", wire, 1}, {"internal/sparse/planted.go", wire, 0}, {"benchmark/planted.go", wire, 0},
		{"cmd/x/planted.go", flag, 1}, {"benchmark/planted.go", flag, 0}, {"cmd/x/planted_test.go", flag, 0},
		{"internal/bench/planted.go", timing, 1}, {"benchmark/planted.go", timing, 0}, {"internal/bench/planted_test.go", timing, 0},
		{"internal/sparse/planted.go", kernels, 1}, {"internal/sparse/planted_test.go", kernels, 1},
		{"internal/sparse/planted_test.go", tag, 1}, {"benchmark/planted.go", tag + kernels + timing, 1}, {"ceilings_test.go", tag, 0},
	} {
		if got := textFaults(c.path, []byte(c.src)); len(got) != c.want {
			t.Errorf("the text rules find %q in a planted %s, want %d faults", got, c.path, c.want)
		}
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		for _, fault := range textFaults(p, src) {
			t.Error(fault)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sparseCtors are the sparse aggregators' constructors; each must exist
// in internal/core and allocate no dim-length buffer.
var sparseCtors = []string{"newGTopKAggregator", "NewBucketedAggregator"}

// ctorFaults returns one line per constructor of sparseCtors that files
// lack, and per make([]float32, …) in one's body.
func ctorFaults(fset *token.FileSet, files []*ast.File) []string {
	var faults []string
	found := make(map[string]bool)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil || !slices.Contains(sparseCtors, fd.Name.Name) {
				continue
			}
			found[fd.Name.Name] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
					return true
				}
				if at, ok := call.Args[0].(*ast.ArrayType); ok && at.Len == nil {
					if elt, ok := at.Elt.(*ast.Ident); ok && elt.Name == "float32" {
						faults = append(faults, fmt.Sprintf("%s: %s allocates a []float32", fset.Position(call.Pos()), fd.Name.Name))
					}
				}
				return true
			})
		}
	}
	for _, c := range sparseCtors {
		if !found[c] {
			faults = append(faults, c+": not found: point the rule at the renamed constructor")
		}
	}
	return faults
}

// TestSparseConstructorsAllocateNoDenseBuffer holds the sparse
// aggregators' constructors in internal/core to allocating no
// dim-length buffer — a sparse aggregator's update is the round's k
// (index, mean) pairs — and fails when either constructor is missing.
// It first plants a constructor that allocates one and a package that
// lacks one to prove the rule fires.
func TestSparseConstructorsAllocateNoDenseBuffer(t *testing.T) {
	faults := func(src string) int {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "planted.go", "package p\n"+src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return len(ctorFaults(fset, []*ast.File{f}))
	}
	for src, want := range map[string]int{
		"func newGTopKAggregator() {}\nfunc NewBucketedAggregator() {}":                                              0,
		"func newGTopKAggregator() { _ = make([]float32, 8) }\nfunc NewBucketedAggregator() {}":                      1,
		"func newGTopKAggregator() {}\nfunc NewBucketedAggregator() { _ = make([][]float32, 2) }":                    0,
		"func newGTopKAggregator() {}\nfunc NewBucketedAggregator() { f := func() { _ = make([]float32, 8) }; f() }": 1,
		"func newGTopKAggregator() {}": 1,
	} {
		if got := faults(src); got != want {
			t.Errorf("the constructor rule finds %d faults in %q, want %d", got, src, want)
		}
	}
	paths, err := filepath.Glob(filepath.Join("internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for _, fault := range ctorFaults(fset, files) {
		t.Errorf("%s: a sparse aggregator allocates no dim-length buffer at construction: its update is the round's k (index, mean) pairs", fault)
	}
}

// moduleTypes type-checks the module's non-test Go files, one package
// per directory and each once, recording every identifier's object in
// info. A module import is checked from its directory, the standard
// library from source.
type moduleTypes struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package // by directory
	files map[string][]*ast.File    // by directory
}

func newModuleTypes() *moduleTypes {
	fset := token.NewFileSet()
	return &moduleTypes{
		fset:  fset,
		info:  &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)},
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
	}
}

// Import implements types.Importer.
func (m *moduleTypes) Import(p string) (*types.Package, error) {
	if p == "gtopkssgd" {
		return m.check(".")
	}
	if dir, ok := strings.CutPrefix(p, "gtopkssgd/"); ok {
		return m.check(filepath.FromSlash(dir))
	}
	return m.std.Import(p)
}

// check type-checks the non-test files of the package in dir.
func (m *moduleTypes) check(dir string) (*types.Package, error) {
	if pkg, ok := m.pkgs[dir]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path.Join("gtopkssgd", filepath.ToSlash(dir)), m.fset, files, m.info)
	m.pkgs[dir], m.files[dir] = pkg, files
	return pkg, err
}

// benchmarkPins is the pin ledger: every exported name of an internal/
// package that benchmark/'s non-test files use — package-level names,
// methods (pkg.T.M, pkg.*T.M for a pointer receiver, promoted ones
// under the type that declares them) and struct fields (pkg.T.F). The
// benchmark reaches the engine through these, so each one stays until
// the benchmark stops naming it; the ledger is exact, so it can only
// shrink (ROADMAP item 1(a) empties most of it). A name whose only
// non-test caller is the benchmark lives in its package's benchpins.go.
var benchmarkPins = []string{
	"collective.Comm", "collective.*Comm.AddStats", "collective.*Comm.ForkGroup", "collective.*Comm.RecvIsPrivate",
	"collective.*Comm.RecvTag", "collective.*Comm.ResetStats", "collective.*Comm.SendTag", "collective.*Comm.SetCompressor",
	"collective.*Comm.SetWireTally", "collective.*Comm.Size", "collective.*Comm.Stats", "collective.*Comm.WithClock",
	"collective.GroupComms", "collective.GroupComms.Leaders", "collective.GroupComms.Members", "collective.New",
	"collective.Stats.BytesSent", "collective.Stats.MsgsSent",
	"core.Aggregator", "core.BucketedAggregator", "core.*BucketedAggregator.LastBucketTimes",
	"core.*BucketedAggregator.SetMomentumCorrection", "core.ChunksFor", "core.DensityToK", "core.GTopKAllReduceInto",
	"core.GradFn", "core.GroupBounds", "core.HierarchicalGTopKAllReduceInto", "core.NewBucketedAggregator",
	"core.NewDenseAggregator", "core.NewGTopKAggregator", "core.NewHierarchicalAggregator", "core.NewSparsifier",
	"core.NewTopKAggregator", "core.NewTrainer", "core.PhaseTimes", "core.PhaseTimes.Aggregate",
	"core.PhaseTimes.Compute", "core.PhaseTimes.Update", "core.Sparsifier", "core.*Sparsifier.FoldError",
	"core.*Sparsifier.PutBack", "core.*Sparsifier.Residual", "core.*Sparsifier.ResidualNorm", "core.*Sparsifier.Select",
	"core.StreamGradFn", "core.TrainConfig", "core.TrainConfig.GradClip", "core.TrainConfig.LR",
	"core.TrainConfig.Momentum", "core.*Trainer.SetPhaseHook", "core.*Trainer.SetStreamGradFn", "core.*Trainer.Step",
	"core.*round.SetMomentumCorrection", "core.*round.Sparsifier",
	"data.Images", "data.NewImages",
	"metrics.WireCounters.Frames", "metrics.WireCounters.Ratio", "metrics.WireCounters.WireBytes", "metrics.WireTally",
	"metrics.*WireTally.Snapshot",
	"netsim.Clock", "netsim.*Clock.Now", "netsim.Paper1GbE",
	"nn.*Network.Init", "nn.*Network.LayerBounds", "nn.*Network.ParamCount", "nn.*Network.Parameters",
	"nn/models.Classifier", "nn/models.Classifier.Net", "nn/models.GradFn", "nn/models.StreamGradFn", "nn/models.VGG16Sim",
	"quant.NewStack", "quant.*Stack.Fork", "quant.*Stack.Transform",
	"sparse.Codec", "sparse.Codec.Lossy", "sparse.Codec.Value", "sparse.Codec.WireVersion", "sparse.DecodeV3Into",
	"sparse.DecodeView", "sparse.EncodeSlicesCodec", "sparse.EncodeSlicesV3", "sparse.Kernels", "sparse.MergeInto",
	"sparse.ParseCodec", "sparse.PutBuffer", "sparse.TopKInto", "sparse.ValueCodec.Quantized", "sparse.ValueF32",
	"sparse.Vector", "sparse.*Vector.Clone", "sparse.Vector.Dim", "sparse.Vector.Indices", "sparse.*Vector.NNZ",
	"sparse.*Vector.ScatterAdd", "sparse.Vector.Values",
	"tensor.AxpyInto", "tensor.Clip",
	"transport.Conn", "transport.Conn.Close", "transport.Conn.Rank", "transport.Conn.Recv", "transport.Conn.Send",
	"transport.Conn.Size", "transport.Fabric", "transport.Fabric.Close", "transport.Fabric.Conn",
	"transport.NegotiatedWireVersion", "transport.NewInProcWire", "transport.NewTCPWithOptions", "transport.PrivateRecv",
	"transport.SendConsumedOnReturn", "transport.SendPooled", "transport.SendVec", "transport.TCPOptions",
	"transport.TCPOptions.WireVersion", "transport.WireV1",
}

// checkModule type-checks every package of the module.
func checkModule(t *testing.T) *moduleTypes {
	t.Helper()
	m := newModuleTypes()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		var none *build.NoGoError
		if _, err := m.check(p); err != nil && !errors.As(err, &none) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pinName names obj as benchmarkPins does, or returns "" for an object
// that is unexported or outside internal/.
func pinName(obj types.Object, fields map[*types.Var]string) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), "gtopkssgd/internal/")
	if !ok {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Signature().Recv(); recv != nil {
			return rel + "." + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return rel + "." + fields[o] + "." + o.Name()
		}
	}
	return rel + "." + obj.Name()
}

// structFields maps each field of the named struct types in pkgs to its
// type's name.
func structFields(pkgs map[string]*types.Package) map[*types.Var]string {
	fields := make(map[*types.Var]string)
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						fields[st.Field(i)] = name
					}
				}
			}
		}
	}
	return fields
}

// usedPins returns the pin names of the objects files use.
func usedPins(files []*ast.File, info *types.Info, fields map[*types.Var]string) map[string]bool {
	used := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if name := pinName(info.Uses[id], fields); name != "" {
					used[name] = true
				}
			}
			return true
		})
	}
	return used
}

// ledgerFaults returns one line per name used but not in the ledger and
// per ledger entry not used.
func ledgerFaults(used map[string]bool, ledger []string) []string {
	var faults []string
	for _, name := range ledger {
		if !used[name] {
			faults = append(faults, name+": in the pin ledger, but benchmark/ no longer names it: delete the entry (and its pin-file wrapper, if it has one)")
		}
	}
	for _, name := range slices.Sorted(maps.Keys(used)) {
		if !slices.Contains(ledger, name) {
			faults = append(faults, name+": benchmark/ names an engine identifier the pin ledger lacks: reach the engine through its public entry points instead")
		}
	}
	return faults
}

// pinFuncs returns the names of the functions and methods the pin files
// (benchpins.go) declare.
func pinFuncs(fset *token.FileSet, info *types.Info) map[string]bool {
	pins := make(map[string]bool)
	for id, obj := range info.Defs {
		if _, ok := obj.(*types.Func); ok && inPinFile(fset, id.Pos()) {
			pins[id.Name] = true
		}
	}
	return pins
}

// inPinFile reports whether pos lies in a pin file.
func inPinFile(fset *token.FileSet, pos token.Pos) bool {
	return filepath.Base(fset.Position(pos).Filename) == "benchpins.go"
}

// pinCallFaults returns one line per identifier, in files outside
// benchmark/ and the pin files, that names a function or method by one
// of the pins' names: a pin is declared only in its pin file and called
// only from benchmark/ and tests.
func pinCallFaults(fset *token.FileSet, files map[string][]*ast.File, info *types.Info, pins map[string]bool) []string {
	var faults []string
	for dir, fs := range files {
		if dir == "benchmark" {
			continue
		}
		for _, f := range fs {
			if inPinFile(fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !pins[id.Name] {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if _, ok := obj.(*types.Func); ok {
					faults = append(faults, fmt.Sprintf("%s: %s: a pin is declared only in its package's benchpins.go and called only from benchmark/ and tests", fset.Position(id.Pos()), id.Name))
				}
				return true
			})
		}
	}
	return faults
}

// TestBenchmarkPins type-checks the module and holds benchmark/'s
// non-test files to the pin ledger, benchmarkPins: a name the ledger
// lacks fails, and so does an entry the benchmark no longer names. It
// also fails when a non-test file outside benchmark/ declares or calls
// a function or method by the name of one in a benchpins.go, so the
// engine never comes to depend on a pin. It first plants a new pin, a
// stale entry, a call to a pin and a second declaration of a pin's
// name to prove each rule fires.
func TestBenchmarkPins(t *testing.T) {
	m := checkModule(t)
	fields, pins := structFields(m.pkgs), pinFuncs(m.fset, m.info)
	planted := func(pkgPath, src string) (map[string][]*ast.File, *types.Info) {
		f, err := parser.ParseFile(m.fset, "planted.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)}
		if _, err := (&types.Config{Importer: m}).Check(pkgPath, m.fset, []*ast.File{f}, info); err != nil {
			t.Fatal(err)
		}
		return map[string][]*ast.File{"planted": {f}}, info
	}
	files, info := planted("gtopkssgd/planted", "package main\nimport \"gtopkssgd/internal/core\"\nvar _ = core.QuorumMin\nfunc main() {}")
	if got := ledgerFaults(usedPins(files["planted"], info, fields), []string{"core.QuorumMin", "core.NewTrainer"}); len(got) != 1 || !strings.HasPrefix(got[0], "core.NewTrainer:") {
		t.Errorf("the ledger rule finds %q for a stale entry, want core.NewTrainer alone", got)
	}
	if got := ledgerFaults(usedPins(files["planted"], info, fields), nil); len(got) != 1 || !strings.HasPrefix(got[0], "core.QuorumMin:") {
		t.Errorf("the ledger rule finds %q for a planted pin, want core.QuorumMin alone", got)
	}
	for src, want := range map[string]int{
		"var _ = core.ChunksFor(1)":                                   1,
		"func f(s *core.Sparsifier) { _, _ = s.Select(nil, 0) }":      1,
		"type T struct{}\nfunc (T) SetMomentumCorrection(float32) {}": 1,
		"var _ interface{ SetMomentumCorrection(float32) }":           1,
		"var _ = core.GTopKInto":                                      0,
	} {
		files, info := planted("gtopkssgd/internal/planted", "package planted\nimport \"gtopkssgd/internal/core\"\nvar _ core.Aggregator\n"+src)
		if got := pinCallFaults(m.fset, files, info, pins); len(got) != want {
			t.Errorf("the pin-call rule finds %d faults in %q, want %d", len(got), src, want)
		}
	}
	for _, fault := range ledgerFaults(usedPins(m.files["benchmark"], m.info, fields), benchmarkPins) {
		t.Error(fault)
	}
	for _, fault := range pinCallFaults(m.fset, m.files, m.info, pins) {
		t.Error(fault)
	}
}
