package rng

import (
	"math"
	"testing"
)

// TestGoldenValues pins the generator to the reference splitmix64
// output sequence (Steele, Lea & Flood; seed-0 vectors are the widely
// published test vectors). Any change to the core algorithm breaks
// every persisted snapshot, so these values must never drift.
func TestGoldenValues(t *testing.T) {
	wantSeed0 := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	s := New(0)
	for i, want := range wantSeed0 {
		if got := s.Uint64(); got != want {
			t.Errorf("seed 0 draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	wantSeed42 := []uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52}
	s = New(42)
	for i, want := range wantSeed42 {
		if got := s.Uint64(); got != want {
			t.Errorf("seed 42 draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	f := New(42)
	wantF := []float64{0.74156487877182331, 0.1599103928769201, 0.27860113025513866}
	for i, want := range wantF {
		if got := f.Float64(); got != want {
			t.Errorf("seed 42 Float64 %d = %.17g, want %.17g", i, got, want)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := New(99)
	// Burn through a mix of draw types to move the state word.
	for i := 0; i < 57; i++ {
		s.TruncNormal(0.5, 0.2, 0, 1)
		s.Intn(17)
		s.Beta(2, 5)
	}
	st := s.State()
	r := FromState(st)
	for i := 0; i < 1000; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d diverged after restore: %v vs %v", i, a, b)
		}
	}
	if r.Seed() != 99 {
		t.Errorf("restored Seed() = %d, want 99", r.Seed())
	}

	// SetState rewinds an existing stream.
	var z Source
	z.SetState(st)
	s2 := FromState(st)
	for i := 0; i < 100; i++ {
		if a, b := z.Float64(), s2.Float64(); a != b {
			t.Fatalf("SetState stream diverged at draw %d", i)
		}
	}
}

func TestSplitStableAcrossRestore(t *testing.T) {
	s := New(7)
	for i := 0; i < 10; i++ {
		s.Float64() // stream position must not affect Split
	}
	a := s.Split(3)
	b := FromState(s.State()).Split(3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split must depend only on the creation seed")
		}
	}
}

func TestIntnUnbiasedSmall(t *testing.T) {
	s := New(14)
	const n, draws = 7, 140000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.03 {
			t.Errorf("Intn(%d): value %d drawn %d times, want ≈%.0f", n, v, c, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	s.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(15)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-3) > 0.02 {
		t.Errorf("Normal mean %v, want ≈3", mean)
	}
	if math.Abs(sd-2) > 0.02 {
		t.Errorf("Normal sd %v, want ≈2", sd)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	if a.Seed() != 42 {
		t.Errorf("Seed() = %d", a.Seed())
	}
}

func TestSplitDeterminismAndIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	s1b := New(7).Split(1)
	same, diff := 0, 0
	for i := 0; i < 1000; i++ {
		v1, v2, v1b := s1.Float64(), s2.Float64(), s1b.Float64()
		if v1 == v1b {
			same++
		}
		if v1 != v2 {
			diff++
		}
	}
	if same != 1000 {
		t.Errorf("Split not deterministic: %d/1000 matched", same)
	}
	if diff < 990 {
		t.Errorf("Split streams look correlated: only %d/1000 differ", diff)
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) produced %v", v)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 50000; i++ {
		v := s.TruncNormal(0.5, 0.2, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("TruncNormal escaped [0,1]: %v", v)
		}
	}
}

func TestTruncNormalMean(t *testing.T) {
	s := New(4)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += s.TruncNormal(0.5, 0.1, 0, 1)
	}
	mean := sum / float64(n)
	// Symmetric truncation around an interior mean keeps the mean.
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("truncated mean %v, want ≈0.5", mean)
	}
}

func TestTruncNormalExtremeMeanStillBounded(t *testing.T) {
	s := New(5)
	// Mean far outside the interval: rejection will stall, the
	// clipping fallback must still respect bounds.
	for i := 0; i < 1000; i++ {
		v := s.TruncNormal(50, 0.01, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("fallback escaped bounds: %v", v)
		}
	}
}

func TestTruncNormalZeroSD(t *testing.T) {
	s := New(6)
	if v := s.TruncNormal(0.7, 0, 0, 1); v != 0.7 {
		t.Errorf("sd=0 should return the mean, got %v", v)
	}
	if v := s.TruncNormal(7, 0, 0, 1); v != 1 {
		t.Errorf("sd=0 out-of-range mean should clamp, got %v", v)
	}
}

func TestTruncNormalPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).TruncNormal(0, 1, 1, 0)
}

func TestGammaMoments(t *testing.T) {
	s := New(9)
	for _, shape := range []float64{0.5, 1, 2.5, 10} {
		n := 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := s.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) produced negative %v", shape, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		if math.Abs(mean-shape)/shape > 0.05 {
			t.Errorf("Gamma(%v) mean %v, want ≈%v", shape, mean, shape)
		}
		if math.Abs(variance-shape)/shape > 0.1 {
			t.Errorf("Gamma(%v) variance %v, want ≈%v", shape, variance, shape)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	s := New(10)
	alpha, beta := 2.0, 5.0
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Beta(alpha, beta)
		if v < 0 || v > 1 {
			t.Fatalf("Beta produced %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	want := alpha / (alpha + beta)
	if math.Abs(mean-want) > 0.01 {
		t.Errorf("Beta mean %v, want ≈%v", mean, want)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(11)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(2)
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exponential(2) mean %v, want ≈0.5", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	s.Exponential(0)
}

func TestPoisson(t *testing.T) {
	s := New(12)
	for _, mean := range []float64{0, 0.5, 4, 600} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			k := s.Poisson(mean)
			if k < 0 {
				t.Fatalf("Poisson(%v) produced %d", mean, k)
			}
			sum += float64(k)
		}
		got := sum / float64(n)
		tol := 0.05*mean + 0.05
		if math.Abs(got-mean) > tol {
			t.Errorf("Poisson(%v) empirical mean %v", mean, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative mean")
		}
	}()
	s.Poisson(-1)
}

func TestPermAndShuffle(t *testing.T) {
	s := New(13)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func BenchmarkTruncNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.TruncNormal(0.5, 0.1, 0, 1)
	}
}

func BenchmarkBeta(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Beta(2, 5)
	}
}
