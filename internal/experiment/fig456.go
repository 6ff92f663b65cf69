package experiment

import (
	"context"
	"fmt"

	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
	"cmabhs/internal/stats"
)

// Fig4To6 regenerates the paper's illustrative example (Sec. III-D,
// Figs. 4–6): three unknown sellers, four PoIs, ten rounds, K=2. The
// output mirrors Fig. 6's per-round trace — who is selected, the
// prices, the sensing times — as series over the round index, plus
// the learned quality estimates. Exact values differ from the paper
// (its Fig. 4 parameters are not fully printed), but the structure is
// the same: an all-seller exploration round at p_max, then
// UCB-alternating pairs with Stackelberg pricing.
func Fig4To6(ctx context.Context, s Settings) ([]Figure, error) {
	means := []float64{0.64, 0.66, 0.57} // the example's expected qualities
	model, err := quality.NewTruncGaussian(means, 0.15, rng.New(s.Seed).Split(0x456))
	if err != nil {
		return nil, err
	}
	cfg := &core.Config{
		Market: market.Config{
			Job: market.Job{L: 4, N: 10, Description: "Sec. III-D illustrative job"},
			Sellers: []market.SellerSpec{
				{Cost: economics.SellerCost{A: 0.30, B: 0.20}},
				{Cost: economics.SellerCost{A: 0.25, B: 0.30}},
				{Cost: economics.SellerCost{A: 0.35, B: 0.25}},
			},
			Platform: economics.PlatformCost{Theta: 0.5, Lambda: 1},
			Consumer: economics.Valuation{Omega: 100},
			PJBounds: game.Bounds{Min: 0, Max: 50},
			PBounds:  game.Bounds{Min: 0, Max: 5}, // p¹* = p_max = 5, as in Fig. 4
			Quality:  model,
		},
		K:          2,
		KeepRounds: true,
	}
	res, err := runMech(ctx, cfg, bandit.NewIncrementalUCB())
	if err != nil {
		return nil, err
	}

	prices := []*stats.SeriesBuilder{
		stats.NewSeriesBuilder("p^J*"),
		stats.NewSeriesBuilder("p*"),
	}
	taus := make([]*stats.SeriesBuilder, 3)
	selected := make([]*stats.SeriesBuilder, 3)
	for i := range taus {
		taus[i] = stats.NewSeriesBuilder(fmt.Sprintf("tau seller %d", i+1))
		selected[i] = stats.NewSeriesBuilder(fmt.Sprintf("seller %d", i+1))
	}
	for _, r := range res.Rounds {
		x := float64(r.Round)
		prices[0].Observe(x, r.PJ)
		prices[1].Observe(x, r.P)
		inRound := map[int]float64{}
		for j, i := range r.Selected {
			inRound[i] = r.Taus[j]
		}
		for i := 0; i < 3; i++ {
			if tau, ok := inRound[i]; ok {
				taus[i].Observe(x, tau)
				selected[i].Observe(x, 1)
			} else {
				taus[i].Observe(x, 0)
				selected[i].Observe(x, 0)
			}
		}
	}
	estimates := stats.NewSeriesBuilder("learned q̄")
	truth := stats.NewSeriesBuilder("true q")
	for i, est := range res.Estimates {
		estimates.Observe(float64(i+1), est)
		truth.Observe(float64(i+1), means[i])
	}

	collect := func(bs []*stats.SeriesBuilder) []stats.Series {
		out := make([]stats.Series, len(bs))
		for i, b := range bs {
			out[i] = b.Series()
		}
		return out
	}
	return []Figure{
		{ID: "fig4-6a", Title: "selection indicator per round (Sec. III-D example)", XLabel: "round", Series: collect(selected)},
		{ID: "fig4-6b", Title: "equilibrium prices per round", XLabel: "round", Series: collect(prices)},
		{ID: "fig4-6c", Title: "sensing times per round", XLabel: "round", Series: collect(taus)},
		{ID: "fig4-6d", Title: "learned vs true qualities after 10 rounds", XLabel: "seller", Series: []stats.Series{estimates.Series(), truth.Series()}},
	}, nil
}
