package core_test

// The compound-pipeline composition tests: every Compressor stack
// (select → transform → encode) run through the real gTop-k collective
// on a v3-negotiated mesh, mirroring codec_equiv_test.go from outside
// the package (quant imports core, so these live in core_test). The
// properties pinned here are the ones the compound wire format v3 is
// built on: replica bit-agreement for every value codec and world size
// (ties, empty supports and non-powers-of-two included), lossless
// stacks bit-identical to the v1 baseline, residual conservation
// through Sparsifier.FoldError, and canonical re-encoding of every
// frame a stack emits.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/f16"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// compoundCodecs is every v3 wire codec, lossless first.
func compoundCodecs() []sparse.Codec {
	return []sparse.Codec{sparse.CodecV3, sparse.CodecV3F16, sparse.CodecV3Q8,
		sparse.CodecV3Q4, sparse.CodecV3Q2, sparse.CodecV3T, sparse.CodecV3S}
}

// compoundVectors builds per-rank sparse inputs for one world. Mode
// "gauss" draws seeded Gaussians, "ties" uses a tiny discrete value set
// so threshold ties are everywhere, "empty" blanks every even rank.
func compoundVectors(seed uint64, p, dim, k int, mode string) []*sparse.Vector {
	vecs := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		rng := prng.New(seed + 977*uint64(r))
		dense := make([]float32, dim)
		for i := range dense {
			switch mode {
			case "ties":
				dense[i] = []float32{-1, -0.5, 0, 0.5, 1}[rng.Intn(5)]
			default:
				dense[i] = float32(rng.NormFloat64())
			}
		}
		v := &sparse.Vector{}
		sparse.TopKInto(v, dense, k)
		if mode == "empty" && r%2 == 0 {
			v = &sparse.Vector{Dim: dim}
		}
		vecs[r] = v
	}
	return vecs
}

// runCompoundWire executes the flat GTopKInto on every rank of an
// in-process fabric negotiated to the codec's wire version, with each
// rank's comm configured exactly as the CLI does it: quant.AttachStack.
func runCompoundWire(t *testing.T, vecs []*sparse.Vector, k int, codec sparse.Codec, seed uint64) []*sparse.Vector {
	t.Helper()
	p := len(vecs)
	f, err := transport.NewInProcWire(p, codec.WireVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	results := make([]*sparse.Vector, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(f.Conn(rank))
			quant.AttachStack(comm, codec, seed)
			out := &sparse.Vector{}
			errs[rank] = core.GTopKInto(context.Background(), comm, nil, vecs[rank].Clone(), k, out)
			results[rank] = out
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("codec %s rank %d: %v", codec, rank, err)
		}
	}
	return results
}

// assertSameVector compares two vectors for bit-identity.
func assertSameVector(t *testing.T, name string, a, b *sparse.Vector) {
	t.Helper()
	if a.Dim != b.Dim || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape dim %d nnz %d vs dim %d nnz %d", name, a.Dim, a.NNZ(), b.Dim, b.NNZ())
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("%s: index %d: %d vs %d", name, i, a.Indices[i], b.Indices[i])
		}
		if math.Float32bits(a.Values[i]) != math.Float32bits(b.Values[i]) {
			t.Fatalf("%s: value %d: %#08x vs %#08x", name, i,
				math.Float32bits(a.Values[i]), math.Float32bits(b.Values[i]))
		}
	}
}

// TestCompoundReplicaBitAgreement is the compound acceptance test: under
// every v3 value codec — including the stochastic quantizers, whose
// rank-forked rngs draw independently — every rank must hold the
// bit-identical aggregate, across world sizes 2..8 and 16, tie-heavy
// and empty-support inputs. Agreement is
// structural (receivers decode the sender's bytes; the bcast root pins
// its own copy through its quantizer), so no rng coordination exists to
// save a buggy implementation.
func TestCompoundReplicaBitAgreement(t *testing.T) {
	const dim, k = 240, 12
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		for _, mode := range []string{"gauss", "ties", "empty"} {
			vecs := compoundVectors(uint64(60+p), p, dim, k, mode)
			for _, codec := range compoundCodecs() {
				results := runCompoundWire(t, vecs, k, codec, uint64(7*p))
				for r := 1; r < p; r++ {
					assertSameVector(t, fmt.Sprintf("p=%d %s %s rank %d vs 0", p, mode, codec, r),
						results[0], results[r])
				}
			}
		}
	}
}

// TestCompoundLosslessMatchesV1: the fp32 v3 stack changes framing only,
// so its aggregate must be bit-identical to the v1 mesh on the same
// inputs — the anchor that chains every compound result back to the
// reference implementation.
func TestCompoundLosslessMatchesV1(t *testing.T) {
	const dim, k = 240, 12
	for _, p := range []int{2, 3, 4, 8} {
		for _, mode := range []string{"gauss", "ties", "empty"} {
			vecs := compoundVectors(uint64(200+p), p, dim, k, mode)
			v1 := runCompoundWire(t, vecs, k, sparse.CodecV1, 1)
			v3 := runCompoundWire(t, vecs, k, sparse.CodecV3, 1)
			for r := range v1 {
				assertSameVector(t, fmt.Sprintf("p=%d %s v3-vs-v1 rank %d", p, mode, r), v1[r], v3[r])
			}
		}
	}
}

// TestCompoundValuesOnLattice: every value a quantized mesh agrees on
// must be representable as DequantLevel(vc, scale, level) for SOME
// (scale, level) — verified the cheap way: values of a ternary/sign
// aggregate are sums of lattice points, and an fp16 aggregate holds
// fp16-representable values only.
func TestCompoundValuesOnLattice(t *testing.T) {
	const dim, k = 300, 15
	vecs := compoundVectors(31, 4, dim, k, "gauss")
	results := runCompoundWire(t, vecs, k, sparse.CodecV3F16, 5)
	for i, v := range results[0].Values {
		if math.Float32bits(f16.Round(v)) != math.Float32bits(v) {
			t.Fatalf("fp16 value %d (%v) is not fp16-representable", i, v)
		}
	}
	if results[0].NNZ() == 0 {
		t.Fatalf("fp16 aggregation lost the whole payload")
	}
}

// TestCompoundResidualConservation pins the error-feedback identity of
// the transform stage at the Sparsifier level, per stack: after Select →
// Transform → FoldError, reconstructing grad[i] as residual[i] plus the
// transmitted value must be exact fp32 for the lossless stack and tight
// (one rounding of orig−sent) for every lossy one — no gradient mass
// leaks out of the pipeline.
func TestCompoundResidualConservation(t *testing.T) {
	const dim, k = 500, 25
	rng := prng.New(123)
	grad := make([]float32, dim)
	for i := range grad {
		grad[i] = float32(rng.NormFloat64())
	}
	for _, codec := range compoundCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			sp := core.NewSparsifier(dim)
			local, err := sp.SelectMomentum(0, nil, grad, k)
			if err != nil {
				t.Fatal(err)
			}
			orig := append([]float32(nil), local.Values...)
			switch vc := codec.Value(); {
			case vc == sparse.ValueF16:
				f16.RoundSlice(local.Values)
			case vc.Quantized():
				quant.NewStack(vc, 9).Transform(local.Values)
			}
			sp.FoldError(local.Indices, orig, local.Values)

			res := sp.Residual()
			sent := make(map[int32]float32, local.NNZ())
			for i, idx := range local.Indices {
				sent[idx] = local.Values[i]
			}
			for i := 0; i < dim; i++ {
				recon := res[i] + sent[int32(i)]
				if !codec.Lossy() {
					if math.Float32bits(recon) != math.Float32bits(grad[i]) {
						t.Fatalf("lossless leak at %d: residual %v + sent %v = %v, want %v",
							i, res[i], sent[int32(i)], recon, grad[i])
					}
					continue
				}
				// Lossy: recon = fl(fl(orig−sent)+sent) differs from orig
				// by at most one rounding at each step.
				if diff := math.Abs(float64(recon - grad[i])); diff > 1e-5*(1+math.Abs(float64(grad[i]))) {
					t.Fatalf("lossy leak at %d: |%v - %v| = %v", i, recon, grad[i], diff)
				}
			}
		})
	}
}

// TestCompoundAllGatherResidualConservation pins the same identity end
// to end on the AllGather path, which has no tree hop to transform for
// it: one Aggregate of the top-k and the naive gTop-k aggregator (put-back
// off, so only the fold can restore mass) at P=2 under every lossy codec.
// The two ranks' gradients live on disjoint halves, so P·update[i] is
// exactly the value rank r shipped for its own index i, and on every
// shipped index that reaches the update residual[i] + P·update[i] must
// reconstruct grad[i].
func TestCompoundAllGatherResidualConservation(t *testing.T) {
	const p, dim, k = 2, 400, 20
	grads := make([][]float32, p)
	for r := range grads {
		rng := prng.New(321 + uint64(r))
		grads[r] = make([]float32, dim)
		for i := r * dim / p; i < (r+1)*dim/p; i++ {
			grads[r][i] = float32(rng.NormFloat64())
		}
	}
	type aggregator interface {
		core.Aggregator
		Sparsifier() *core.Sparsifier
	}
	builders := map[string]func(*collective.Comm) (aggregator, error){
		"topk": func(c *collective.Comm) (aggregator, error) { return core.NewTopKAggregator(c, dim, k) },
		"gtopk-naive": func(c *collective.Comm) (aggregator, error) {
			a, err := core.NewNaiveGTopKAggregator(c, dim, k)
			if err == nil {
				a.SetPutBack(false)
			}
			return a, err
		},
	}
	for name, build := range builders {
		for _, codec := range compoundCodecs()[1:] {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				f, err := transport.NewInProcWire(p, codec.WireVersion())
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close() //nolint:errcheck // test teardown
				aggs := make([]aggregator, p)
				updates := make([][]float32, p)
				errs := make([]error, p)
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					comm := collective.New(f.Conn(r))
					quant.AttachStack(comm, codec, 17)
					if aggs[r], err = build(comm); err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						u, err := aggs[rank].Aggregate(context.Background(), grads[rank])
						updates[rank], errs[rank] = core.DenseUpdate(u, dim), err
					}(r)
				}
				wg.Wait()
				checked := 0
				for r := 0; r < p; r++ {
					if errs[r] != nil {
						t.Fatalf("rank %d: %v", r, errs[r])
					}
					shipped := &sparse.Vector{}
					sparse.TopKInto(shipped, grads[r], k)
					res := aggs[r].Sparsifier().Residual()
					for _, idx := range shipped.Indices {
						if name != "topk" && updates[r][idx] == 0 {
							continue // dropped by the global re-selection; put-back is off
						}
						checked++
						recon, want := res[idx]+p*updates[r][idx], grads[r][idx]
						if diff := math.Abs(float64(recon - want)); diff > 1e-5*(1+math.Abs(float64(want))) {
							t.Fatalf("rank %d leak at %d: residual %v + shipped %v = %v, want %v",
								r, idx, res[idx], p*updates[r][idx], recon, want)
						}
					}
				}
				if checked == 0 {
					t.Fatal("no shipped index reached the update")
				}
			})
		}
	}
}

// TestCompoundFoldThenPutBack pins the interplay the bucketed and gTop-k
// aggregators rely on: FoldError first, then PutBack for indices the
// global selection dropped, restores exactly the original mass for the
// lossless stack (residual fl(orig−sent)=0, PutBack adds sent=orig).
func TestCompoundFoldThenPutBack(t *testing.T) {
	const dim, k = 100, 10
	rng := prng.New(77)
	grad := make([]float32, dim)
	for i := range grad {
		grad[i] = float32(rng.NormFloat64())
	}
	sp := core.NewSparsifier(dim)
	local, err := sp.SelectMomentum(0, nil, grad, k)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]float32(nil), local.Values...)
	sp.FoldError(local.Indices, orig, local.Values) // lossless: folds zeros
	// Global selection keeps every other local index.
	var global []int32
	for i := 0; i < local.NNZ(); i += 2 {
		global = append(global, local.Indices[i])
	}
	sp.PutBack(local, global)
	res := sp.Residual()
	kept := make(map[int32]bool, len(global))
	for _, idx := range global {
		kept[idx] = true
	}
	for i, idx := range local.Indices {
		want := float32(0)
		if !kept[idx] {
			want = orig[i] // dropped globally: full mass back in the residual
		}
		if math.Float32bits(res[idx]) != math.Float32bits(want) {
			t.Fatalf("index %d: residual %v, want %v", idx, res[idx], want)
		}
	}
}

// TestCompoundCanonicalReEncode: every frame a stack emits through the
// v3 encoder decodes and re-encodes byte-identically — the property
// replica comparison and the fuzz wall both lean on, checked here
// deterministically for each stack.
func TestCompoundCanonicalReEncode(t *testing.T) {
	const dim, k = 400, 20
	rng := prng.New(55)
	dense := make([]float32, dim)
	for i := range dense {
		dense[i] = float32(rng.NormFloat64())
	}
	v := &sparse.Vector{}
	sparse.TopKInto(v, dense, k)
	for _, codec := range compoundCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			vals := append([]float32(nil), v.Values...)
			var frame []byte
			if vc := codec.Value(); vc.Quantized() {
				scale, levels := quant.NewStack(vc, 11).Transform(vals)
				frame = sparse.EncodeSlicesV3(codec, dim, v.Indices, nil, scale, levels)
			} else {
				if vc == sparse.ValueF16 {
					f16.RoundSlice(vals)
				}
				frame = sparse.EncodeSlicesV3(codec, dim, v.Indices, vals, 0, nil)
			}
			fr, err := sparse.DecodeV3Frame(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			re := fr.Encode()
			if len(re) != len(frame) {
				t.Fatalf("re-encode length %d, want %d", len(re), len(frame))
			}
			for i := range frame {
				if re[i] != frame[i] {
					t.Fatalf("re-encode differs at byte %d: %#02x vs %#02x", i, re[i], frame[i])
				}
			}
			// And the decoded floats must match what the sender kept.
			decoded := &sparse.Vector{}
			if err := sparse.DecodeV3Into(decoded, frame); err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, "decoded vs sender copy",
				&sparse.Vector{Dim: dim, Indices: v.Indices, Values: vals}, decoded)
		})
	}
}
