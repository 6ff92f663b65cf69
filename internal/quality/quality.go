// Package quality implements the sensing-quality models of the CDT
// system (Definition 3): each seller i has a fixed but unknown
// expected quality q_i ∈ [0, 1] determined by its device, and every
// observation q_{i,l}^t at a PoI is a noisy draw around q_i caused by
// exogenous factors (angle, distance, context). The paper's
// simulations use a truncated Gaussian on [0, 1] (TruncGaussian);
// nonstationary.go adds drifting and shifting means for the
// fixed-quality ablation.
package quality

import (
	"errors"
	"fmt"

	"cmabhs/internal/rng"
)

// ErrBadExpectation is returned when an expected quality lies outside
// [0, 1].
var ErrBadExpectation = errors.New("quality: expected quality must lie in [0, 1]")

// Model generates the noisy per-PoI quality observations for a fixed
// population of sellers. Implementations must be deterministic given
// the Source passed at construction.
type Model interface {
	// Expected returns seller i's expected quality q_i.
	Expected(seller int) float64
	// Observe returns one observation q_{i,l}^t ∈ [0, 1] for seller i
	// at PoI l in round t.
	Observe(seller, poi, round int) float64
	// Sellers returns the population size M.
	Sellers() int
}

// State is the serializable state of a quality model. The model's
// structure (means, noise level, biases) is rebuilt from configuration
// on resume; only the live observation stream position travels.
type State struct {
	RNG rng.State `json:"rng"`
}

// Stateful is implemented by models whose observation stream carries
// serializable state. A model without a stream need not implement it;
// callers treat that as "nothing to persist".
type Stateful interface {
	State() State
	Restore(State) error
}

// validateExpectations checks all means lie in [0, 1].
func validateExpectations(means []float64) error {
	for i, m := range means {
		if m < 0 || m > 1 {
			return fmt.Errorf("%w (seller %d has q=%v)", ErrBadExpectation, i, m)
		}
	}
	return nil
}

// TruncGaussian is the paper's observation model: observations are
// Gaussian around q_i with standard deviation SD, truncated to [0, 1].
type TruncGaussian struct {
	means []float64
	sd    float64
	src   *rng.Source
}

// NewTruncGaussian builds the model. sd must be non-negative.
func NewTruncGaussian(means []float64, sd float64, src *rng.Source) (*TruncGaussian, error) {
	if err := validateExpectations(means); err != nil {
		return nil, err
	}
	if sd < 0 {
		return nil, errors.New("quality: negative standard deviation")
	}
	return &TruncGaussian{means: append([]float64(nil), means...), sd: sd, src: src}, nil
}

// Expected returns q_i.
func (m *TruncGaussian) Expected(seller int) float64 { return m.means[seller] }

// Sellers returns M.
func (m *TruncGaussian) Sellers() int { return len(m.means) }

// Observe draws a truncated-Gaussian observation. The (poi, round)
// arguments only assert the caller's indices are sane; draws are
// consumed from the stream in call order, which keeps full runs
// reproducible under a fixed seed.
func (m *TruncGaussian) Observe(seller, poi, round int) float64 {
	checkIndices(seller, len(m.means), poi, round)
	return m.src.TruncNormal(m.means[seller], m.sd, 0, 1)
}

func checkIndices(seller, m, poi, round int) {
	if seller < 0 || seller >= m {
		panic(fmt.Sprintf("quality: seller index %d out of range [0,%d)", seller, m))
	}
	if poi < 0 {
		panic("quality: negative PoI index")
	}
	if round < 0 {
		panic("quality: negative round index")
	}
}

// State implements Stateful.
func (m *TruncGaussian) State() State { return State{RNG: m.src.State()} }

// Restore implements Stateful.
func (m *TruncGaussian) Restore(st State) error { m.src.SetState(st.RNG); return nil }

var (
	_ Model    = (*TruncGaussian)(nil)
	_ Stateful = (*TruncGaussian)(nil)
)
