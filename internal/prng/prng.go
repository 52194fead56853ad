// Package prng provides a small, fast, deterministic pseudo-random number
// generator used everywhere randomness is needed in this repository.
//
// Reproducibility is a hard requirement for the convergence experiments:
// identical seeds must yield identical mini-batch sequences, identical
// weight initialisations and therefore identical loss curves on every run
// and on every transport. The standard library's math/rand would work, but
// a local implementation keeps the sequence stable across Go releases and
// lets us derive independent per-worker streams cheaply.
//
// The generator is splitmix64 for seeding feeding xoshiro256** for the
// stream, the construction recommended by Blackman & Vigna.
package prng

import "math"

// Source is a deterministic random number generator. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, guaranteeing a
// well-mixed internal state even for small consecutive seeds.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets s to the stream New(seed) returns, in place — for callers
// that restart a reused generator without allocating a new one.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output mixed with the given stream id, so
// Split(i) != Split(j) for i != j and repeated calls advance the parent.
func (s *Source) Split(stream uint64) *Source {
	return New(s.Uint64() ^ (stream+1)*0xd1342543de82ef95)
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0,
// mirroring math/rand semantics (callers always pass positive lengths).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniformly distributed float32 in [0, 1).
func (s *Source) Float32() float32 {
	return float32(s.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate using the polar
// Box-Muller method (no cached second value, keeping Split semantics
// simple and state minimal).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}
