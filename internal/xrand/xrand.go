// Package xrand is a small deterministic random number generator used for
// DNN weight initialisation, synthetic scene generation and workload
// sampling. It is a splitmix64/xorshift construction implemented here so
// that results are bit-identical across Go releases and platforms — the
// reproduction harness depends on every run regenerating the same figures.
package xrand

import "math"

// RNG is a deterministic pseudo-random generator. The zero value is valid
// but fixed; use New to seed. RNG is not safe for concurrent use — fork
// independent streams with Fork instead of sharing one.
type RNG struct {
	state uint64
	// spare holds a cached Box-Muller variate.
	spare    float64
	hasSpare bool
}

// New returns an RNG seeded with seed. Two RNGs with the same seed produce
// identical streams.
func New(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so that small seeds (0, 1, 2...) diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Fork derives an independent deterministic stream from r and a label.
// Forking with the same label always yields the same stream, so per-layer
// or per-user sub-streams do not depend on call order.
func (r *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(splitmix(r.state ^ h))
}

// splitmix is the SplitMix64 output function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state = splitmix(r.state)
	return r.state
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform value in [0, 1). The outer conversion keeps
// the scaling, which the compiler turns into a multiply, from fusing into
// a caller's add once inlined (see NormFloat64).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		// Each float64(...) rounds a product on its own, so no
		// architecture fuses it into the add (an FMA rounds once): the
		// draws, and every weight built from them, match on all GOARCHes.
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1). Scale by
// 1/lambda for other rates; trace generation uses this for Poisson
// arrivals.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
