package quant

import (
	"math"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/f16"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

// Stack is this package's implementation of sparse.Compressor: the
// transform stage of the compound pipeline (select → transform →
// encode) that quantizes gTop-k's surviving VALUES onto the wire
// codec's lattice after selection. Indices stay exact — a wrong index
// corrupts an unrelated parameter — so the compression compounds:
// sparsification removes entries, the stack then shrinks what survives
// (QSGD 8/4/2-bit, TernGrad ternary, or signSGD sign bits), which is
// how the pipeline passes the 32× ceiling quantization alone caps at.
//
// Transform replaces every value with its dequantized lattice point
// (sparse.DequantLevel), so the slice a sender keeps after transforming
// is bit-identical to what every receiver decodes; the difference
// between the original and the transformed values is the quantization
// error the aggregator folds into the error-feedback residual.
type Stack struct {
	vc     sparse.ValueCodec
	seed   uint64
	root   uint64 // NewStack's seed; kept through Fork, drawn on by Shared
	rng    *prng.Source
	levels []int16
	shared *Stack // Shared's reused compressor (nil until first asked for)
}

// NewStack builds a Compressor for one value codec. The seed drives the
// stochastic rounding (QSGD) and Bernoulli sampling (ternary) and must
// be the SAME on every rank: the gTop-k broadcast roots quantize the
// global result with Shared, whose draws come from this seed. Each rank
// then transforms its own hops with NewStack(vc, seed).Fork(rank) —
// unbiasedness wants independent draws, and the rank streams give them.
func NewStack(vc sparse.ValueCodec, seed uint64) *Stack {
	return &Stack{vc: vc, seed: seed, root: seed, rng: prng.New(seed)}
}

// AttachStack is the one rule by which a caller that wants codec on the
// wire gives comm its value preference: a lossy codec attaches a Stack
// for the codec's value codec, a lossless one attaches nothing (and on a
// mesh negotiated down to v1 the preference is ineffective, see
// Comm.SetCompressor). seed must be the same on every rank (see
// NewStack); the attached stream is Fork(rank) of it, so each worker's
// stochastic rounding noise is its own while the broadcast roots share
// one Shared stream.
func AttachStack(comm *collective.Comm, codec sparse.Codec, seed uint64) {
	if codec.Lossy() {
		comm.SetCompressor(NewStack(codec.Value(), seed).Fork(uint64(comm.Rank())))
	}
}

// ValueCodec names the wire representation Transform's levels use.
func (s *Stack) ValueCodec() sparse.ValueCodec { return s.vc }

// Fork derives the compressor for a tag-isolated sub-communicator. The
// child's seed is a pure function of (parent seed, stream) — never of
// how many draws the parent has made — so concurrently launched buckets
// transform deterministically regardless of goroutine scheduling.
func (s *Stack) Fork(stream uint64) sparse.Compressor {
	c := NewStack(s.vc, forkSeed(s.seed, stream))
	c.root = s.root
	return c
}

// Shared implements sparse.Compressor: the reused child is reseeded from
// (root seed, key) on every call, in a stream family apart from Fork's
// (the root is complemented first), so a key never replays a rank's
// stream.
func (s *Stack) Shared(key uint64) sparse.Compressor {
	if s.shared == nil {
		s.shared = &Stack{vc: s.vc, root: s.root, rng: new(prng.Source)}
	}
	s.shared.seed = forkSeed(^s.root, key)
	s.shared.rng.Seed(s.shared.seed)
	return s.shared
}

// forkSeed mixes a stream number into a seed (splitmix64 finalizer —
// the same mixing prng.New applies to its seed).
func forkSeed(seed, stream uint64) uint64 {
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Transform quantizes values in place onto s's lattice and returns the
// frame scale plus one level per entry for the v3 encoder. The level
// slice aliases internal scratch, valid until the next Transform. The
// arithmetic mirrors Uniform/Ternary/Sign exactly; reconstruction goes
// through sparse.DequantLevel so sender and receivers agree bit-exact.
func (s *Stack) Transform(values []float32) (float32, []int16) {
	switch s.vc {
	case sparse.ValueF32:
		return 0, nil
	case sparse.ValueF16:
		f16.RoundSlice(values)
		return 0, nil
	}
	if cap(s.levels) < len(values) {
		s.levels = make([]int16, len(values))
	}
	levels := s.levels[:len(values)]
	switch s.vc {
	case sparse.ValueQ8, sparse.ValueQ4, sparse.ValueQ2:
		return s.transformUniform(values, levels), levels
	case sparse.ValueTernary:
		return s.transformTernary(values, levels), levels
	default: // sparse.ValueSign
		return transformSign(values, levels), levels
	}
}

// transformUniform is Uniform's QSGD stochastic rounding, writing into
// reusable scratch and pinning values to the decoder's lattice. Its loop
// takes no data-dependent branch, and produces Uniform's levels and
// DequantLevel's values bit for bit: t = |v|/scale·steps lies in
// [0, steps], where truncation is floor; the round-up compare selects
// 0 or 1; the sign goes back on the integer level, where -0 cannot
// arise; and the value is DequantLevel's QSGD expression. A non-finite
// input makes t NaN and its level 0, as before.
func (s *Stack) transformUniform(values []float32, levels []int16) float32 {
	var scale float32
	for _, v := range values {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		for i := range levels {
			levels[i] = 0
		}
		return 0
	}
	steps := float32(s.steps())
	levels = levels[:len(values)]
	for i, v := range values {
		u := math.Float32bits(v)
		t := math.Float32frombits(u&^(1<<31)) / scale * steps
		lo := int32(t)
		up := int32(0)
		if s.rng.Float32() < t-float32(lo) {
			up = 1
		}
		neg := int32(u) >> 31 // -1 when the sign bit is set, else 0
		level := int16(((lo + up) ^ neg) - neg)
		levels[i] = level
		values[i] = scale * float32(level) / steps
	}
	return scale
}

// transformTernary is Ternary's Bernoulli sampling with in-place
// lattice pinning.
func (s *Stack) transformTernary(values []float32, levels []int16) float32 {
	var scale float32
	for _, v := range values {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		for i := range levels {
			levels[i] = 0
		}
		return 0
	}
	for i, v := range values {
		levels[i] = 0
		if s.rng.Float32() < abs32(v)/scale {
			if v >= 0 {
				levels[i] = 1
			} else {
				levels[i] = -1
			}
		}
		values[i] = sparse.DequantLevel(s.vc, scale, levels[i])
	}
	return scale
}

// transformSign is Sign's element-wise sign with the mean magnitude as
// the shared scale (the scaled-sign estimator), deterministic — no rng.
func transformSign(values []float32, levels []int16) float32 {
	var sum float64
	for _, v := range values {
		sum += float64(abs32(v))
	}
	var scale float32
	if len(values) > 0 {
		scale = float32(sum / float64(len(values)))
	}
	for i, v := range values {
		if v >= 0 {
			levels[i] = 1
		} else {
			levels[i] = -1
		}
		values[i] = sparse.DequantLevel(sparse.ValueSign, scale, levels[i])
	}
	return scale
}

// steps returns the per-codec positive level count for the QSGD family.
func (s *Stack) steps() int16 {
	switch s.vc {
	case sparse.ValueQ8:
		return 255
	case sparse.ValueQ4:
		return 15
	default: // sparse.ValueQ2
		return 3
	}
}
