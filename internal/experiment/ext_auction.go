package experiment

import (
	"context"

	"cmabhs/internal/auction"
	"cmabhs/internal/bandit"
	"cmabhs/internal/numutil"
	"cmabhs/internal/rng"
	"cmabhs/internal/stats"
)

// ExtAuction compares the paper's Stackelberg incentive mechanism
// against the reverse-auction baseline of the related work ([9],
// [10], [36]): the same markets are run under (a) CMAB-HS and (b) a
// UCB+critical-payment auction where sellers bid their unit costs,
// the platform picks the K best UCB-quality-per-cost offers at a
// fixed unit sensing time, and winners are paid their critical
// values (dominant-strategy truthful; see internal/auction).
//
// The figure reports average per-round PoC/PoP/PoS for both. The
// expected trade-off: Stackelberg pricing optimizes the three-party
// profits (higher PoC), while the auction holds seller payments to
// critical values (truthfulness premium shows up as seller rent and
// a thinner consumer margin).
func ExtAuction(ctx context.Context, s Settings) ([]Figure, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	xs := make([]float64, len(SweepN))
	for i, n := range SweepN {
		xs[i] = float64(s.scaled(n))
	}
	reps := s.reps()
	type cell struct {
		x                  float64
		stackel, auctioned auctionMetrics
	}
	cells := make([]cell, len(xs)*reps)
	err := s.forEachCell(ctx, len(cells), func(ctx context.Context, idx int) error {
		xi := idx / reps
		rep := idx % reps
		horizon := int(xs[xi])
		src := rng.New(s.Seed).Split(int64(xi*27644437 + rep))
		inst := s.NewInstance(src, s.M, s.K, horizon)

		res, err := runMech(ctx, inst.Config, bandit.NewIncrementalUCB())
		if err != nil {
			return err
		}
		a, err := runAuctionMarket(inst, s.K, horizon)
		if err != nil {
			return err
		}
		cells[idx] = cell{
			x: xs[xi],
			stackel: auctionMetrics{
				poc: res.AvgPoC(), pop: res.AvgPoP(), pos: res.AvgPoSPerSeller(s.K), ok: true,
			},
			auctioned: *a,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := []string{
		"PoC CMAB-HS", "PoC auction",
		"PoP CMAB-HS", "PoP auction",
		"PoS CMAB-HS", "PoS auction",
	}
	builders := make([]*stats.SeriesBuilder, len(names))
	for i, n := range names {
		builders[i] = stats.NewSeriesBuilder(n)
	}
	for _, c := range cells {
		if !c.stackel.ok || !c.auctioned.ok {
			continue
		}
		builders[0].Observe(c.x, c.stackel.poc)
		builders[1].Observe(c.x, c.auctioned.poc)
		builders[2].Observe(c.x, c.stackel.pop)
		builders[3].Observe(c.x, c.auctioned.pop)
		builders[4].Observe(c.x, c.stackel.pos)
		builders[5].Observe(c.x, c.auctioned.pos)
	}
	series := make([]stats.Series, len(names))
	for i := range builders {
		series[i] = builders[i].Series()
	}
	return []Figure{{
		ID:     "ext-auction",
		Title:  "avg per-round profits: Stackelberg pricing vs truthful reverse auction",
		XLabel: "N",
		Series: series,
	}}, nil
}

// auctionMetrics are average per-round profits (pos per seller).
type auctionMetrics struct {
	poc, pop, pos float64
	ok            bool
}

// runAuctionMarket executes the UCB+auction mechanism on an
// instance's market: round 1 explores everyone at break-even, later
// rounds run the critical-payment auction on UCB quality indices at
// a fixed unit sensing time per winner.
func runAuctionMarket(inst *Instance, k, horizon int) (*auctionMetrics, error) {
	mcfg := &inst.Config.Market
	m := len(mcfg.Sellers)
	model := mcfg.Quality
	arms := bandit.NewArms(m)
	const commission = 0.05

	// True unit costs: the cost of one unit of sensing time at the
	// seller's own (privately known) quality.
	costs := make([]float64, m)
	for i, spec := range mcfg.Sellers {
		q := model.Expected(i)
		if q < 0.05 {
			q = 0.05 // keep bids bounded away from zero
		}
		costs[i] = (spec.Cost.A + spec.Cost.B) * q
	}
	valuation := func(sel []int) float64 {
		var qsum numutil.KahanSum
		for _, i := range sel {
			qsum.Add(arms.Mean(i))
		}
		qbar := qsum.Sum() / float64(len(sel))
		return mcfg.Consumer.Value(float64(len(sel)), qbar)
	}
	observe := func(t int, sel []int) {
		for _, i := range sel {
			obs := make([]float64, mcfg.Job.L)
			for l := range obs {
				obs[l] = model.Observe(i, l, t)
			}
			arms.Update(i, obs)
		}
	}

	var poc, pop, pos numutil.KahanSum
	rounds := 0

	// Round 1: full exploration, pay-as-bid.
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	observe(1, all)
	rounds++ // exploration round is priced at break-even for everyone

	ucb := make([]float64, m)
	for t := 2; t <= horizon; t++ {
		for i := range ucb {
			u := arms.UCB(i, k)
			if u > 1 {
				u = 1
			}
			ucb[i] = u
		}
		res, err := auction.Run(ucb, costs, k)
		if err != nil {
			return nil, err
		}
		observe(t, res.Winners)
		aggCost := mcfg.Platform.Cost(float64(k))
		settle, err := res.Settle(valuation(res.Winners), aggCost, commission)
		if err == auction.ErrNoTrade {
			rounds++
			continue // nobody trades this round; profits all zero
		}
		if err != nil {
			return nil, err
		}
		poc.Add(settle.ConsumerProfit)
		pop.Add(settle.PlatformProfit)
		var rent numutil.KahanSum
		for j, w := range res.Winners {
			rent.Add(res.Payments[j] - costs[w])
		}
		pos.Add(rent.Sum())
		rounds++
	}
	r := float64(rounds)
	return &auctionMetrics{
		poc: poc.Sum() / r,
		pop: pop.Sum() / r,
		pos: pos.Sum() / r / float64(k),
		ok:  true,
	}, nil
}
