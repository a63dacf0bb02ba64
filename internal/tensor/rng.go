package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64 for the
// stream, Box-Muller for Gaussians). It is used everywhere in the repo so
// experiments are bit-reproducible across runs and machines without pulling
// in math/rand's global state.
type RNG struct {
	state uint64
	// cached second Gaussian from Box-Muller
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// RandN returns a rows x cols matrix of N(0, std^2) samples.
func RandN(r *RNG, rows, cols int, std float64) *Matrix {
	m := Zeros(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * std
	}
	return m
}

// RandUniform returns a rows x cols matrix of Uniform(lo, hi) samples.
func RandUniform(r *RNG, rows, cols int, lo, hi float64) *Matrix {
	m := Zeros(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + float64((hi-lo)*r.Float64())
	}
	return m
}

// XavierInit returns a fanOut x fanIn weight matrix initialized with the
// Glorot/Xavier uniform scheme, the default for transformer linear layers.
func XavierInit(r *RNG, fanOut, fanIn int) *Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(r, fanOut, fanIn, -limit, limit)
}

// RandSPD returns a random n x n symmetric positive definite matrix
// M = Q Q^T + jitter*I where Q has N(0,1) entries. Useful for tests.
func RandSPD(r *RNG, n int, jitter float64) *Matrix {
	q := RandN(r, n, n, 1)
	m := MatMulT(q, q)
	m.AddDiagonalInPlace(jitter)
	return m
}
