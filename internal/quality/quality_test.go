package quality

import (
	"math"
	"testing"

	"cmabhs/internal/rng"
)

func TestValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := NewTruncGaussian([]float64{0.5, 1.5}, 0.1, src); err == nil {
		t.Error("expectation > 1 should be rejected")
	}
	if _, err := NewTruncGaussian([]float64{-0.1}, 0.1, src); err == nil {
		t.Error("negative expectation should be rejected")
	}
	if _, err := NewTruncGaussian([]float64{0.5}, -0.1, src); err == nil {
		t.Error("negative sd should be rejected")
	}
	if _, err := NewTruncGaussian([]float64{0.5, 0, 1}, 0.1, src); err != nil {
		t.Errorf("boundary expectations are valid: %v", err)
	}
}

func TestModelAccessors(t *testing.T) {
	means := []float64{0.2, 0.8}
	m, err := NewTruncGaussian(means, 0.1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Sellers() != 2 {
		t.Errorf("Sellers = %d", m.Sellers())
	}
	if m.Expected(0) != 0.2 || m.Expected(1) != 0.8 {
		t.Error("Expected() wrong")
	}
	// Constructor must copy the means.
	means[0] = 0.99
	if m.Expected(0) != 0.2 {
		t.Error("constructor aliased the caller's slice")
	}
}

func TestTruncGaussianObservations(t *testing.T) {
	m, err := NewTruncGaussian([]float64{0.3, 0.7}, 0.15, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var sum0, sum1 float64
	n := 20000
	for i := 0; i < n; i++ {
		v0 := m.Observe(0, i%10, i)
		v1 := m.Observe(1, i%10, i)
		if v0 < 0 || v0 > 1 || v1 < 0 || v1 > 1 {
			t.Fatalf("observation out of [0,1]: %v %v", v0, v1)
		}
		sum0 += v0
		sum1 += v1
	}
	if math.Abs(sum0/float64(n)-0.3) > 0.01 {
		t.Errorf("seller 0 empirical mean %v", sum0/float64(n))
	}
	if math.Abs(sum1/float64(n)-0.7) > 0.01 {
		t.Errorf("seller 1 empirical mean %v", sum1/float64(n))
	}
}

func TestObserveReproducible(t *testing.T) {
	mk := func() Model {
		m, err := NewTruncGaussian([]float64{0.5, 0.9}, 0.2, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if a.Observe(i%2, i%10, i) != b.Observe(i%2, i%10, i) {
			t.Fatal("same seed must reproduce observations")
		}
	}
}

func TestObservePanicsOnBadIndices(t *testing.T) {
	m, err := NewTruncGaussian([]float64{0.5}, 0.1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { m.Observe(1, 0, 0) },
		func() { m.Observe(-1, 0, 0) },
		func() { m.Observe(0, -1, 0) },
		func() { m.Observe(0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad index")
				}
			}()
			fn()
		}()
	}
}
