package experiment

import (
	"context"

	"cmabhs/internal/bandit"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
	"cmabhs/internal/stats"
)

// ExtNonStationary probes the paper's fixed-quality assumption
// (Def. 3 Remark): sellers' expected qualities shift abruptly —
// phase A's ranking is inverted in phase B, switching every
// N/8 rounds — and the policies compete on regret against the
// per-round dynamic oracle. Compared: the paper's cumulative
// extended UCB, the sliding-window and discounted variants built for
// this regime, and random selection.
//
// The headline finding (recorded in EXPERIMENTS.md) is a negative
// result for the specialist policies at CDT scales: the paper's wide
// (K+1)·ln(Σn) confidence makes cumulative UCB re-explore
// aggressively enough to track regime shifts on its own.
func ExtNonStationary(ctx context.Context, s Settings) ([]Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	xs := make([]float64, len(SweepN))
	for i, n := range SweepN {
		xs[i] = float64(s.scaled(n))
	}
	names := []string{"CMAB-HS", "sw-ucb", "d-ucb", "random"}
	reps := s.reps()
	type cell struct {
		x      float64
		policy int
		regret float64
		ok     bool
	}
	cells := make([]cell, len(xs)*reps*len(names))
	err := s.forEachCell(ctx, len(cells), func(ctx context.Context, idx int) error {
		xi := idx / (reps * len(names))
		rep := (idx / len(names)) % reps
		pol := idx % len(names)
		horizon := int(xs[xi])
		src := rng.New(s.Seed).Split(int64(xi*18839 + rep))
		inst := s.NewInstance(src, s.M, s.K, horizon)

		// Replace the stationary model with a two-phase shifting one:
		// phase B inverts phase A's quality ranking.
		up := make([]float64, s.M)
		down := make([]float64, s.M)
		for i := range up {
			up[i] = s.QRange.Draw(src.Split(int64(i)))
		}
		// down[i] gets the quality of the "mirror" seller: the phase
		// switch inverts the ranking.
		for i := range down {
			down[i] = up[s.M-1-i]
		}
		switchEvery := horizon / 8
		if switchEvery < 2 {
			switchEvery = 2
		}
		model, err := quality.NewShifting([][]float64{up, down}, switchEvery, s.SD, src.Split(0x5f))
		if err != nil {
			return err
		}
		inst.Config.Market.Quality = model
		var policy bandit.Policy
		switch pol {
		case 0:
			policy = bandit.NewIncrementalUCB()
		case 1:
			w := switchEvery / 2
			if w < 10 {
				w = 10
			}
			policy = bandit.NewSlidingWindowUCB(w)
		case 2:
			policy = bandit.NewDiscountedUCB(0.998)
		default:
			policy = bandit.NewRandom(src.Split(0xaa))
		}
		res, err := runMech(ctx, inst.Config, policy)
		if err != nil {
			return err
		}
		cells[idx] = cell{x: xs[xi], policy: pol, regret: res.DynamicRegret, ok: true}
		return nil
	})
	if err != nil {
		return nil, err
	}
	builders := make([]*stats.SeriesBuilder, len(names))
	for i, n := range names {
		builders[i] = stats.NewSeriesBuilder(n)
	}
	for _, c := range cells {
		if c.ok {
			builders[c.policy].Observe(c.x, c.regret)
		}
	}
	series := make([]stats.Series, len(names))
	for i := range builders {
		series[i] = builders[i].Series()
	}
	return []Figure{{
		ID:     "ext-nonstationary",
		Title:  "dynamic regret vs N under abrupt quality shifts (extension)",
		XLabel: "N",
		Series: series,
	}}, nil
}
