package experiment

import (
	"context"
	"fmt"

	"cmabhs/internal/bandit"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/numutil"
	"cmabhs/internal/rng"
	"cmabhs/internal/stats"
)

// This file implements the ablation studies DESIGN.md §6 calls out:
// the extended-UCB confidence width vs. classic UCB1 (and the
// Thompson/ε-greedy extensions), the initial full-exploration round
// vs. cold start, and the closed-form game solver vs. the exact
// kinked-curve solver.

// AblationUCB compares bandit indices/policies on regret over the N
// sweep: extended UCB (Eq. 19), classic UCB1, Thompson sampling, and
// ε-greedy, plus the oracle floor.
func AblationUCB(ctx context.Context, s Settings) ([]Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	names := []string{"optimal", "CMAB-HS", "UCB1", "thompson", "0.10-greedy"}
	mk := func(inst *Instance, src *rng.Source, idx int) bandit.Policy {
		switch idx {
		case 0:
			return bandit.NewOracle(inst.Means)
		case 1:
			return bandit.NewIncrementalUCB()
		case 2:
			return bandit.UCB1Greedy{}
		case 3:
			return bandit.NewThompson(src.Split(0x7))
		default:
			return bandit.NewEpsilonGreedy(0.1, src.Split(0x8))
		}
	}
	xs := make([]float64, len(SweepN))
	for i, n := range SweepN {
		xs[i] = float64(s.scaled(n))
	}
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
		src := rng.New(s.Seed).Split(int64(xi*104729 + rep))
		inst := s.NewInstance(src, s.M, s.K, horizon)
		res, err := runMech(ctx, inst.Config, mk(inst, src, pol))
		if err != nil {
			return fmt.Errorf("ablation-ucb x=%v policy=%s: %w", xs[xi], names[pol], err)
		}
		cells[idx] = cell{x: xs[xi], policy: pol, regret: res.Regret, ok: true}
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
	for i := range names {
		series[i] = builders[i].Series()
	}
	return []Figure{{
		ID:     "ablation-ucb",
		Title:  "regret vs N across bandit indices",
		XLabel: "N",
		Series: series,
	}}, nil
}

// AblationExplore compares the mechanism with and without Algorithm
// 1's initial full-exploration round.
func AblationExplore(ctx context.Context, s Settings) ([]Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	xs := make([]float64, len(SweepN))
	for i, n := range SweepN {
		xs[i] = float64(s.scaled(n))
	}
	names := []string{"with initial exploration", "cold start"}
	reps := s.reps()
	builders := []*stats.SeriesBuilder{stats.NewSeriesBuilder(names[0]), stats.NewSeriesBuilder(names[1])}
	type cell struct {
		x      float64
		regret float64
		ok     bool
	}
	cells := make([]cell, len(xs)*reps*2)
	err := s.forEachCell(ctx, len(cells), func(ctx context.Context, idx int) error {
		xi := idx / (reps * 2)
		rep := (idx / 2) % reps
		cold := idx%2 == 1
		horizon := int(xs[xi])
		src := rng.New(s.Seed).Split(int64(xi*31337 + rep))
		inst := s.NewInstance(src, s.M, s.K, horizon)
		inst.Config.ColdStart = cold
		res, err := runMech(ctx, inst.Config, bandit.NewIncrementalUCB())
		if err != nil {
			return err
		}
		cells[idx] = cell{x: xs[xi], regret: res.Regret, ok: true}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for idx, c := range cells {
		if c.ok {
			builders[idx%2].Observe(c.x, c.regret)
		}
	}
	return []Figure{{
		ID:     "ablation-explore",
		Title:  "regret vs N with/without the initial exploration round",
		XLabel: "N",
		Series: []stats.Series{builders[0].Series(), builders[1].Series()},
	}}, nil
}

// AblationSolver compares the closed-form game solver against the
// exact kinked-curve solver across the K sweep: per-round consumer
// and platform profit at equilibrium, on the fixed game instance
// family of Figs. 13–18.
func AblationSolver(ctx context.Context, s Settings) ([]Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(s.Seed).Split(0x50)
	kGrid := SweepK
	phiClosed := stats.NewSeriesBuilder("PoC closed-form")
	phiExact := stats.NewSeriesBuilder("PoC exact")
	gapB := stats.NewSeriesBuilder("relative gap")
	for _, k := range kGrid {
		if k > s.M {
			continue
		}
		for rep := 0; rep < s.reps()*8; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sub := src.Split(int64(k*1000 + rep))
			p := &game.Params{
				Platform: economics.PlatformCost{Theta: s.Theta, Lambda: s.Lambda},
				Consumer: economics.Valuation{Omega: s.Omega},
				PJBounds: s.PJBounds,
				PBounds:  s.PBounds,
			}
			for i := 0; i < k; i++ {
				p.Sellers = append(p.Sellers, economics.SellerCost{
					A: s.ARange.Draw(sub),
					B: s.BRange.Draw(sub),
				})
				p.Qualities = append(p.Qualities, sub.Uniform(0.05, 1))
			}
			closed, err := game.Solve(p)
			if err != nil {
				return nil, err
			}
			exact, err := game.SolveExact(p)
			if err != nil {
				return nil, err
			}
			phiClosed.Observe(float64(k), closed.ConsumerProfit)
			phiExact.Observe(float64(k), exact.ConsumerProfit)
			denom := numutil.Clamp(exact.ConsumerProfit, 1e-9, 1e18)
			gapB.Observe(float64(k), (exact.ConsumerProfit-closed.ConsumerProfit)/denom)
		}
	}
	return []Figure{
		{
			ID:     "ablation-solver",
			Title:  "equilibrium consumer profit: closed-form vs exact solver",
			XLabel: "K",
			Series: []stats.Series{phiClosed.Series(), phiExact.Series(), gapB.Series()},
		},
	}, nil
}
