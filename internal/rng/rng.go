// Package rng provides the deterministic random sources the simulator
// is built on: truncated Gaussian observations (the paper's quality
// noise model), Beta and other variates, bounded uniforms, and
// splittable seeding so parallel parameter sweeps stay reproducible.
//
// Every Source owns a splitmix64 generator whose complete state is two
// words (the creation seed and the current state word), so a live
// stream can be exported with State and resumed bit-for-bit with
// FromState — the foundation of the repository's durable snapshots.
// Nothing in the repository draws from the global generator.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random stream backed by a
// splitmix64 generator. It is not safe for concurrent use; derive
// independent streams with Split instead of sharing one across
// goroutines.
type Source struct {
	state uint64
	seed  int64
}

// State is the complete serializable state of a Source: restoring it
// resumes the stream at exactly the next draw. Both fields round-trip
// exactly through encoding/json.
type State struct {
	Seed  int64  `json:"seed"`
	State uint64 `json:"state"`
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{state: uint64(seed), seed: seed}
}

// FromState reconstructs a Source mid-stream from an exported State.
func FromState(st State) *Source {
	return &Source{state: st.State, seed: st.Seed}
}

// State exports the full generator state.
func (s *Source) State() State { return State{Seed: s.seed, State: s.state} }

// SetState rewinds or fast-forwards the stream to an exported State.
func (s *Source) SetState(st State) { s.state, s.seed = st.State, st.Seed }

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent deterministic sub-stream identified by
// key. Two Sources with the same (seed, key) produce identical
// streams; distinct keys produce decorrelated streams. Split depends
// only on the creation seed, never on the stream position, so it is
// stable across a snapshot/restore cycle.
func (s *Source) Split(key int64) *Source {
	return New(mix(s.seed, key))
}

// mix combines a seed and a key with a splitmix64-style finalizer.
func mix(seed, key int64) int64 {
	z := uint64(seed) ^ (uint64(key) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// next advances the splitmix64 state and returns the next 64 output
// bits (Steele, Lea & Flood's finalizer over a Weyl sequence).
func (s *Source) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next raw 64-bit output word.
func (s *Source) Uint64() uint64 { return s.next() }

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.Float64()*(hi-lo)
}

// uint64n returns an unbiased uniform integer in [0, n) by rejection.
func (s *Source) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // power of two
		return s.next() & (n - 1)
	}
	// Reject the 2^64 mod n smallest raw values so every residue is
	// equally likely.
	threshold := -n % n
	for {
		v := s.next()
		if v >= threshold {
			return v % n
		}
	}
}

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.uint64n(uint64(n)))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// normFloat64 returns a standard Gaussian variate via the Box–Muller
// transform. The spare variate is deliberately discarded: caching it
// would add hidden state beyond the two exported words.
func (s *Source) normFloat64() float64 {
	u := 1 - s.Float64() // (0, 1]: keeps the log finite
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, sd float64) float64 {
	return mean + sd*s.normFloat64()
}

// TruncNormal returns a Gaussian(mean, sd) variate truncated to
// [lo, hi] by rejection sampling, falling back to clipping if the
// acceptance region is so improbable that rejection stalls. This is
// the observation model the paper uses for sensing qualities
// ("truncated Gaussian distribution" on [0, 1]).
func (s *Source) TruncNormal(mean, sd, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	if sd <= 0 {
		return clamp(mean, lo, hi)
	}
	for i := 0; i < 64; i++ {
		x := s.Normal(mean, sd)
		if x >= lo && x <= hi {
			return x
		}
	}
	return clamp(s.Normal(mean, sd), lo, hi)
}

// Exponential returns an exponential variate with the given rate.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(1-s.Float64()) / rate
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang
// method (with Ahrens–Dieter boosting for shape < 1).
func (s *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: X ~ Gamma(a+1), U^(1/a) scaling.
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.normFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(alpha, beta) variate. Used by the
// Thompson-sampling bandit extension.
func (s *Source) Beta(alpha, beta float64) float64 {
	x := s.Gamma(alpha)
	y := s.Gamma(beta)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Poisson returns a Poisson variate with the given mean (Knuth's
// algorithm for small means, normal approximation above 500).
func (s *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean > 500 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GoString lets %#v show the live stream position in test failures.
func (s *Source) GoString() string {
	return fmt.Sprintf("rng.Source{seed: %d, state: %#x}", s.seed, s.state)
}
