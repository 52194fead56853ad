package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file is the codec-bytes experiment: what the wire codecs do to
// the BYTES a gTop-k round ships. It reads Comm.Stats().BytesSent after
// a fixed number of rounds of the real collective on seeded inputs, so
// every number is a count — a pure function of (seed, code) that
// TestBenchArtifactReproduces regenerates and compares. What a round
// COSTS in time is not reported here: benchmark/ measures the whole
// step under each codec (comm-tcp runs v3-qsgd8), `go test -bench` the
// encode/decode kernels.

// Codec-sweep workload shape. The gradient is layer-structured (see
// layeredGradient): winners cluster in the few large-scale layers, the
// support pattern real convnets produce and the delta codec exploits.
const (
	codecBytesDim      = 1 << 20
	codecBytesQuickDim = 1 << 17
	codecBytesWorkers  = 4
	codecBytesLayers   = 16
	// codecBytesRounds is the fixed round count of every cell. The
	// stochastic value codecs (QSGD, ternary) draw fresh rounding noise
	// each round, so per-round bytes vary; the reported figure is the
	// total over exactly this many rounds divided by it, never by a
	// run-dependent iteration count.
	codecBytesRounds = 8
)

// codecBytesCodecs is the one codec list, largest frames first: the flat
// and the delta/varint lossless formats, then down the value-precision
// ladder. Each row's bytes are strictly below the previous row's
// (TestHotPathMeasuresThePrintedCodec).
var codecBytesCodecs = []sparse.Codec{
	sparse.CodecV1, sparse.CodecV3, sparse.CodecV3Q8, sparse.CodecV3Q2, sparse.CodecV3T, sparse.CodecV3S,
}

// codecBytesSection is the codec_bytes section of BENCH_gtopk.json.
type codecBytesSection struct {
	// Dim/Workers/Layers describe the workload; Rounds the fixed round
	// count every cell's bytes are totalled over.
	Dim     int    `json:"dim"`
	Workers int    `json:"workers"`
	Layers  int    `json:"layers"`
	Rounds  int    `json:"rounds"`
	Kind    string `json:"kind"`
	// Rows holds one cell per (rho, codec), codecs in codecBytesCodecs
	// order within each density.
	Rows []WireCodecResult `json:"rows"`
}

// WireCodecResult is one (density, codec) cell of the codec sweep.
type WireCodecResult struct {
	Name   string  `json:"name"`
	Fabric string  `json:"fabric"`
	Rho    float64 `json:"rho"`
	Codec  string  `json:"codec"`
	// WireBytesPerRank is rank 0's Stats().BytesSent over the cell's
	// codecBytesRounds rounds, divided by that count.
	WireBytesPerRank int64 `json:"wire_bytes_per_rank"`
	// BytesReduction is the same density's v1 cell's wire bytes divided
	// by this codec's (1.0 for v1 itself).
	BytesReduction float64 `json:"bytes_reduction"`
	// TallyRatio is the raw-vs-encoded ratio the metrics.WireTally
	// observed — what gtopk-worker logs in real runs.
	TallyRatio float64 `json:"tally_ratio"`
}

// layeredGradient synthesises a dense gradient with per-layer magnitude
// structure: dim splits into `layers` contiguous segments and segment l
// draws from N(0, decay^l). Top-k winners therefore cluster in the few
// large-scale segments — the support pattern real convnet gradients
// show (the DGC line of work reports the same concentration), and the
// regime the delta codec is designed for.
func layeredGradient(src *prng.Source, dim, layers int, decay float64) []float32 {
	g := make([]float32, dim)
	scale := 1.0
	for l := 0; l < layers; l++ {
		lo, hi := l*dim/layers, (l+1)*dim/layers
		for i := lo; i < hi; i++ {
			g[i] = float32(src.NormFloat64() * scale)
		}
		scale *= decay
	}
	return g
}

// onRanks runs fn once per rank concurrently and joins the errors.
func onRanks(p int, fn func(rank int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// codecBytesRows counts one density's row per codec: the unchanged
// collective runs codecBytesRounds rounds, each over a fresh copy of the
// same seeded per-rank top-k vectors, on an in-process mesh negotiated
// to the codec. (The TCP fabric frames the same bytes — at ρ = 0.001 it
// moved 16 784 / 10 745 B for v1 / v3, and every other cell matched the
// in-process mesh too — so one fabric is the table.)
func codecBytesRows(dim int, rho float64, seed uint64) ([]WireCodecResult, error) {
	p := codecBytesWorkers
	k := core.DensityToK(dim, rho)
	vecs := make([]*sparse.Vector, p)
	for r := range vecs {
		src := prng.New(seed + 31*uint64(r))
		vecs[r] = sparse.TopK(layeredGradient(src, dim, codecBytesLayers, 0.5), k)
	}
	rows := make([]WireCodecResult, 0, len(codecBytesCodecs))
	for _, codec := range codecBytesCodecs {
		row := WireCodecResult{
			Name:   fmt.Sprintf("gtopk/inproc/rho=%g/%s", rho, codec),
			Fabric: "inproc", Rho: rho, Codec: codec.String(),
		}
		fab, err := transport.NewInProcWire(p, codec.WireVersion())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.Name, err)
		}
		tally := &metrics.WireTally{}
		comms := make([]*collective.Comm, p)
		for r := range comms {
			comms[r] = collective.New(fab.Conn(r))
			quant.AttachStack(comms[r], codec, seed)
			comms[r].SetWireTally(tally)
		}
		err = onRanks(p, func(rank int) error {
			var local, out sparse.Vector
			for i := 0; i < codecBytesRounds; i++ {
				// A lossy codec pins the sender's values to its lattice in
				// place, so every round starts from the seeded vector.
				sparse.CopyInto(&local, vecs[rank])
				if err := core.GTopKInto(context.Background(), comms[rank], nil, &local, k, &out); err != nil {
					return err
				}
			}
			return nil
		})
		fab.Close() //nolint:errcheck // bench teardown
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.Name, err)
		}
		row.WireBytesPerRank = comms[0].Stats().BytesSent / codecBytesRounds
		row.TallyRatio = tally.Snapshot().Ratio()
		rows = append(rows, row)
		// v1 leads codecBytesCodecs, so rows[0] is this density's baseline.
		rows[len(rows)-1].BytesReduction = float64(rows[0].WireBytesPerRank) / float64(row.WireBytesPerRank)
	}
	return rows, nil
}

// codecBytes runs the codec sweep, renders its table and updates the
// codec_bytes section of the artifact. Quick mode shrinks the dimension.
func codecBytes(_ context.Context, opt Options) (string, error) {
	codecs := &codecBytesSection{
		Dim: codecBytesDim, Workers: codecBytesWorkers, Layers: codecBytesLayers,
		Rounds: codecBytesRounds, Kind: kindCount,
	}
	if opt.Quick {
		codecs.Dim = codecBytesQuickDim
	}

	var sb strings.Builder
	sb.WriteString("Codec bytes: wire volume of one gTop-k round per codec (real collective, seeded; counts, not timings)\n")
	fmt.Fprintf(&sb, "P=%d, dim=%d, %d-layer gradient, inproc; B/rank = rank 0's bytes sent over %d rounds / %d\n\n",
		codecs.Workers, codecs.Dim, codecs.Layers, codecBytesRounds, codecBytesRounds)
	codecTb := metrics.NewTable("config", "wire B/rank", "reduction vs v1", "tally ratio")
	for _, rho := range []float64{0.001, 0.01} {
		rows, err := codecBytesRows(codecs.Dim, rho, opt.seed())
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			codecTb.AddRow(r.Name, fmt.Sprint(r.WireBytesPerRank),
				fmt.Sprintf("%.2fx", r.BytesReduction), fmt.Sprintf("%.2fx", r.TallyRatio))
		}
		codecs.Rows = append(codecs.Rows, rows...)
	}
	sb.WriteString(codecTb.String())
	sb.WriteString("\nreduction = v1 wire bytes / codec wire bytes at the same rho; tally ratio =\nflat-equivalent / encoded bytes per frame (what workers log). Lossy value\ncodecs fold their quantization error into the error-feedback residual.\n")

	note, err := updateArtifact(opt, func(a *artifact) { a.CodecBytes = codecs })
	return sb.String() + note, err
}
