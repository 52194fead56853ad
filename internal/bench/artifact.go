package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// This file owns BENCH_gtopk.json, the committed artifact of the four
// experiments whose output is a pure function of (seed, code): codec
// byte counts and the α-β-priced hierarchy, quorum and hierarchical
// quorum sweeps. No field in it comes from a wall clock —
// measured numbers live in benchmark/ (the whole step) and in
// `go test -bench` (the kernels) — so TestBenchArtifactReproduces
// regenerates every section and compares it with the committed one.

// artifactSchema versions BENCH_gtopk.json. v3 dropped every wall-clock
// field and tags each result field with a kind.
const artifactSchema = "gtopk-bench-artifact/v3"

// artifactDefaultPath is where a default-configuration run writes: the
// committed artifact when run from the repo root.
const artifactDefaultPath = "BENCH_gtopk.json"

// The kinds a result field can carry — benchmark/README.md's vocabulary
// minus `measured`, which this artifact never holds. A section states
// one Kind for all its result fields, or a per-field Kinds map when it
// mixes the two.
const (
	// kindCount marks a number the program counted (bytes, selected
	// entries, missed rounds) or a ratio of such counts.
	kindCount = "count"
	// kindModelled marks a number read off the α-β virtual clock, a
	// closed-form netsim prediction, or anything derived from those.
	kindModelled = "modelled"
)

// artifact is the schema of BENCH_gtopk.json: an environment stamp plus
// one section per artifact experiment.
type artifact struct {
	Schema    string `json:"schema"`
	Seed      uint64 `json:"seed"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	CodecBytes *codecBytesSection `json:"codec_bytes,omitempty"`
	Hierarchy  *HierarchySection  `json:"hierarchy,omitempty"`
	Quorum     *QuorumSection     `json:"quorum,omitempty"`
	QuorumHier *QuorumHierSection `json:"quorum_hier,omitempty"`
}

// loadArtifact parses an artifact file.
func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return a, nil
}

// updateArtifact is the one place the artifact is opened, updated and
// written: set installs the caller's section(s) into the report at
// opt.JSONPath (default BENCH_gtopk.json), keeping the other sections
// of an existing file when it has this schema and seed — sections of
// another seed cannot sit under one seed stamp, so a mismatch starts a
// fresh report. A -quick or -hier-group run is not the committed
// configuration and therefore writes only where -json points; without
// -json it writes nothing. Returns the line to print after the tables.
func updateArtifact(opt Options, set func(*artifact)) (string, error) {
	path := opt.JSONPath
	if path == "" {
		if opt.Quick || opt.HierGroup > 1 {
			return fmt.Sprintf("\nnothing written: a -quick or -hier-group run never touches %s (name a path with -json to keep its sections)\n", artifactDefaultPath), nil
		}
		path = artifactDefaultPath
	}
	a, err := loadArtifact(path)
	if err != nil || a.Schema != artifactSchema || a.Seed != opt.seed() {
		a = &artifact{}
	}
	a.Schema, a.Seed = artifactSchema, opt.seed()
	a.GoVersion, a.GOOS, a.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	set(a)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return fmt.Sprintf("\nupdated %s\n", path), nil
}

// artifactExperiment adapts a sweep that returns its rendered tables and
// its section into an Experiment.Run that also installs the section in
// the artifact.
func artifactExperiment[S any](sweep func(context.Context, Options) (string, S, error), set func(*artifact, S)) func(context.Context, Options) (string, error) {
	return func(ctx context.Context, opt Options) (string, error) {
		out, section, err := sweep(ctx, opt)
		if err != nil {
			return "", err
		}
		note, err := updateArtifact(opt, func(a *artifact) { set(a, section) })
		return out + note, err
	}
}
