package core

import (
	"math"
	"testing"

	"cmabhs/internal/aggregate"
	"cmabhs/internal/bandit"
	"cmabhs/internal/ledger"
	"cmabhs/internal/market"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

// TestRunWithDepartures: departed sellers are never selected after
// their departure round, and the run keeps going.
func TestRunWithDepartures(t *testing.T) {
	cfg, _ := testConfig(t, 8, 3, 120, 3, 31)
	dep := make([]int, 8)
	dep[0] = 10 // seller 0 leaves at round 10
	dep[5] = 50 // seller 5 leaves at round 50
	cfg.Market.Departures = dep
	cfg.KeepRounds = true
	res, err := Run(cfg, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsPlayed != 120 {
		t.Fatalf("played %d rounds", res.RoundsPlayed)
	}
	for _, r := range res.Rounds {
		for _, i := range r.Selected {
			if i == 0 && r.Round >= 10 {
				t.Fatalf("round %d selected departed seller 0", r.Round)
			}
			if i == 5 && r.Round >= 50 {
				t.Fatalf("round %d selected departed seller 5", r.Round)
			}
		}
	}
}

// TestDeparturesWithFlakyDeliveries drives the two legacy failure
// modes together: a seller departs mid-run while every delivery is
// flaky (DeliveryRate < 1). The run must settle every round through
// the re-priced post-game path — non-delivering sellers earn exactly
// zero while delivering ones are paid, the platform never pays out
// more than the consumer's re-priced reward, the departed seller's
// account freezes at its departure round, and the ledger conserves.
func TestDeparturesWithFlakyDeliveries(t *testing.T) {
	cfg, _ := testConfig(t, 8, 3, 120, 3, 31)
	dep := make([]int, 8)
	dep[2] = 40 // seller 2 leaves at round 40, deliveries flaky throughout
	cfg.Market.Departures = dep
	cfg.Market.DeliveryRate = 0.6
	cfg.Market.DeliverySeed = 77
	cfg.KeepRounds = true

	mech, err := NewMechanism(cfg, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	led := mech.Market().Ledger()
	var balAtDeparture float64
	for !mech.Done() {
		round, platform := mech.Round(), led.Balance(ledger.Platform)
		if _, err := mech.Step(); err != nil {
			t.Fatal(err)
		}
		// Re-priced settlement: the platform's per-round commission
		// (reward in minus collection payouts) must never go negative.
		if c := led.Balance(ledger.Platform) - platform; c < -1e-9 {
			t.Fatalf("round %d: negative commission %v", round, c)
		}
		if round == 40 {
			balAtDeparture = led.Balance(ledger.Seller(2))
		}
	}
	res := mech.Result()
	if res.RoundsPlayed != 120 {
		t.Fatalf("played %d rounds, stopped %q", res.RoundsPlayed, res.Stopped)
	}

	// The departed seller is gone: never selected again, account
	// frozen at the departure-round balance.
	for _, r := range res.Rounds {
		if r.Round < 40 {
			continue
		}
		for _, i := range r.Selected {
			if i == 2 {
				t.Fatalf("round %d selected departed seller 2", r.Round)
			}
		}
	}
	if got := led.Balance(ledger.Seller(2)); got != balAtDeparture {
		t.Fatalf("departed seller's balance moved after departure: %v -> %v", balAtDeparture, got)
	}

	// Flaky deliveries actually bit: some settled rounds must mix
	// zero-profit (failed delivery: no data, no pay, no cost) with
	// paid sellers.
	mixed := false
	for _, r := range res.Rounds {
		if r.NoTrade {
			continue
		}
		var zero, paid bool
		for _, sp := range r.SellerProfits {
			if sp == 0 {
				zero = true
			} else if sp > 0 {
				paid = true
			}
		}
		mixed = mixed || (zero && paid)
	}
	if !mixed {
		t.Fatal("no round mixed failed and successful deliveries; interaction untested")
	}
	if imb := led.TotalImbalance(); math.Abs(imb) > 1e-6 {
		t.Fatalf("ledger imbalance %v", imb)
	}
}

// TestRunDeparturesShrinkSelection: when fewer than K sellers remain,
// the mechanism selects what is left; when none remain it stops.
func TestRunDeparturesShrinkSelection(t *testing.T) {
	cfg, _ := testConfig(t, 4, 3, 60, 3, 33)
	dep := []int{20, 20, 0, 0} // two sellers leave at round 20
	cfg.Market.Departures = dep
	cfg.KeepRounds = true
	res, err := Run(cfg, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.Round >= 20 && len(r.Selected) != 2 {
			t.Fatalf("round %d selected %d sellers, want 2 survivors", r.Round, len(r.Selected))
		}
	}
	// Everyone leaves: run halts.
	cfg2, _ := testConfig(t, 4, 3, 60, 3, 33)
	cfg2.Market.Departures = []int{20, 20, 20, 20}
	res2, err := Run(cfg2, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stopped != "no active sellers" {
		t.Fatalf("Stopped = %q", res2.Stopped)
	}
	if res2.RoundsPlayed >= 60 {
		t.Fatalf("run should halt early, played %d", res2.RoundsPlayed)
	}
	// Everyone gone before round 1: error.
	cfg3, _ := testConfig(t, 2, 1, 10, 3, 33)
	cfg3.Market.Departures = []int{1, 1}
	if _, err := Run(cfg3, bandit.UCBGreedy{}); err == nil {
		t.Fatal("expected error when all sellers depart before round 1")
	}
}

// TestRunBudget: the run stops once the consumer's cumulative spend
// reaches the budget.
func TestRunBudget(t *testing.T) {
	cfg, _ := testConfig(t, 8, 3, 10_000, 3, 35)
	free, err := Run(cfg, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Stopped != "" {
		t.Fatalf("unbudgeted run stopped: %q", free.Stopped)
	}
	cfg2, _ := testConfig(t, 8, 3, 10_000, 3, 35)
	cfg2.Budget = free.ConsumerSpend / 10
	capped, err := Run(cfg2, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stopped != "budget exhausted" {
		t.Fatalf("Stopped = %q", capped.Stopped)
	}
	if capped.RoundsPlayed >= free.RoundsPlayed {
		t.Fatal("budgeted run should stop early")
	}
	if capped.ConsumerSpend < cfg2.Budget {
		t.Fatalf("spend %v below budget %v at stop", capped.ConsumerSpend, cfg2.Budget)
	}
	// The overshoot is at most one round's reward — bounded sanity:
	// spend before the final round was below budget.
	if capped.ConsumerSpend > 2*cfg2.Budget {
		t.Fatalf("spend %v overshoots budget %v wildly", capped.ConsumerSpend, cfg2.Budget)
	}
}

// TestRunDataLayer: with the raw-data layer enabled, aggregation RMSE
// is finite, and a quality-aware policy delivers lower error than
// random selection on the same market.
func TestRunDataLayer(t *testing.T) {
	build := func(seed int64) *Config {
		cfg, _ := testConfig(t, 20, 4, 600, 4, 37)
		sensor, err := aggregate.NewSensor(0.05, 3, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Market.Data = &market.DataLayer{
			Signal:     aggregate.SineSignal{Base: 50, Amp: 10, Period: 100},
			Sensor:     sensor,
			Aggregator: aggregate.WeightedMean{},
		}
		return cfg
	}
	ucb, err := Run(build(1), bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ucb.MeanAggRMSE) || ucb.MeanAggRMSE <= 0 {
		t.Fatalf("MeanAggRMSE = %v", ucb.MeanAggRMSE)
	}
	rnd, err := Run(build(1), bandit.NewRandom(rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !(ucb.MeanAggRMSE < rnd.MeanAggRMSE) {
		t.Errorf("quality-aware aggregation RMSE %v should beat random %v",
			ucb.MeanAggRMSE, rnd.MeanAggRMSE)
	}
	// Without the layer, RMSE is NaN.
	plain, _ := testConfig(t, 5, 2, 20, 3, 37)
	res, err := Run(plain, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.MeanAggRMSE) {
		t.Errorf("expected NaN RMSE without a data layer, got %v", res.MeanAggRMSE)
	}
}

// TestDeparturesValidation: a departures slice of the wrong length is
// rejected by the market config.
func TestDeparturesValidation(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 10, 3, 39)
	cfg.Market.Departures = []int{1, 2} // wrong length
	if _, err := Run(cfg, bandit.UCBGreedy{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestRunNonStationary: with abruptly shifting qualities the
// dynamic-regret metric is populated for every policy, all learning
// policies beat random selection, and stationary models report NaN.
// (Which learner wins is scale-dependent — see the ext-nonstationary
// experiment and EXPERIMENTS.md; the paper's wide confidence term
// makes even cumulative UCB re-explore aggressively.)
func TestRunNonStationary(t *testing.T) {
	const m = 8
	build := func() *Config {
		cfg, _ := testConfig(t, m, 2, 4000, 3, 41)
		up := make([]float64, m)
		down := make([]float64, m)
		for i := range up {
			up[i] = 0.1 + 0.8*float64(i)/float64(m-1)
			down[m-1-i] = up[i]
		}
		model, err := quality.NewShifting([][]float64{up, down}, 500, 0.05, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Market.Quality = model
		return cfg
	}
	policies := []bandit.Policy{
		bandit.UCBGreedy{},
		bandit.NewSlidingWindowUCB(200),
		bandit.NewDiscountedUCB(0.998),
	}
	random, err := Run(build(), bandit.NewRandom(rng.New(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		res, err := Run(build(), p)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.DynamicRegret) || res.DynamicRegret < 0 {
			t.Fatalf("%s: DynamicRegret = %v", p.Name(), res.DynamicRegret)
		}
		if !(res.DynamicRegret < random.DynamicRegret/1.5) {
			t.Errorf("%s dynamic regret %v should be well below random %v",
				p.Name(), res.DynamicRegret, random.DynamicRegret)
		}
	}
	// Stationary models report NaN.
	plain, _ := testConfig(t, 5, 2, 20, 3, 41)
	res, err := Run(plain, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.DynamicRegret) {
		t.Errorf("stationary DynamicRegret = %v, want NaN", res.DynamicRegret)
	}
}

// TestRunDeliveryFailures: with transient failures, failed sellers
// are unpaid and unlearned that round, the run completes, and the
// ledger still conserves. Revenue scales roughly with the delivery
// rate.
func TestRunDeliveryFailures(t *testing.T) {
	full, _ := testConfig(t, 10, 3, 2000, 3, 43)
	reliable, err := Run(full, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	flaky, _ := testConfig(t, 10, 3, 2000, 3, 43)
	flaky.Market.DeliveryRate = 0.6
	flaky.Market.DeliverySeed = 5
	flaky.KeepRounds = true
	res, err := Run(flaky, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsPlayed != 2000 {
		t.Fatalf("played %d rounds", res.RoundsPlayed)
	}
	// Realized revenue should be roughly 60% of the reliable run's.
	ratio := res.RealizedRevenue / reliable.RealizedRevenue
	if ratio < 0.45 || ratio > 0.75 {
		t.Errorf("revenue ratio %v, want ≈0.6", ratio)
	}
	// Spot-check failed sellers: sensing times include zeros even in
	// trading rounds (failed deliveries zeroed post-game).
	zeroed := 0
	for _, r := range res.Rounds[1:] {
		for _, tau := range r.Taus {
			if tau == 0 {
				zeroed++
			}
		}
	}
	if zeroed == 0 {
		t.Error("expected some zeroed sensing times from failures")
	}
	// Consumer spend only covers delivered time: strictly below the
	// reliable run's.
	if !(res.ConsumerSpend < reliable.ConsumerSpend) {
		t.Errorf("flaky spend %v should be below reliable %v", res.ConsumerSpend, reliable.ConsumerSpend)
	}
}

// TestDeliveryRateValidation: out-of-range rates are rejected.
func TestDeliveryRateValidation(t *testing.T) {
	cfg, _ := testConfig(t, 5, 2, 10, 3, 45)
	cfg.Market.DeliveryRate = 1.5
	if _, err := Run(cfg, bandit.UCBGreedy{}); err == nil {
		t.Fatal("rate > 1 should fail")
	}
	cfg.Market.DeliveryRate = -0.1
	if _, err := Run(cfg, bandit.UCBGreedy{}); err == nil {
		t.Fatal("negative rate should fail")
	}
}

// TestRunRandomizedSoak drives the whole mechanism through random
// configurations with every feature toggled at random — churn,
// budgets, delivery failures, drifting qualities, solvers, policies —
// and asserts the global invariants: no errors, finite metrics,
// consistent round counts, and a conserved settlement ledger.
func TestRunRandomizedSoak(t *testing.T) {
	src := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		m := 3 + src.Intn(20)
		k := 1 + src.Intn(m)
		n := 10 + src.Intn(150)
		l := 1 + src.Intn(6)
		cfg, means := testConfig(t, m, k, n, l, int64(1000+trial))

		switch src.Intn(4) {
		case 1:
			amps := make([]float64, m)
			for i := range amps {
				amps[i] = src.Uniform(0, 0.4)
			}
			model, err := quality.NewDrifting(means, amps, src.Uniform(20, 200), 0.1, src.Split(int64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Market.Quality = model
		case 2:
			cfg.Market.Quality = bernoulliQuality{means: means, src: src.Split(int64(trial))}
		}
		if src.Intn(3) == 0 {
			dep := make([]int, m)
			for i := range dep {
				if src.Float64() < 0.2 {
					dep[i] = 2 + src.Intn(n)
				}
			}
			cfg.Market.Departures = dep
		}
		if src.Intn(3) == 0 {
			cfg.Market.DeliveryRate = src.Uniform(0.5, 1)
			cfg.Market.DeliverySeed = int64(trial)
		}
		if src.Intn(4) == 0 {
			cfg.Budget = src.Uniform(100, 5000)
		}
		if src.Intn(5) == 0 {
			cfg.Market.Job.T = src.Uniform(0.5, 5)
		}
		cfg.Solver = Solver(src.Intn(2)) // closed-form or exact
		cfg.ColdStart = src.Intn(4) == 0

		policies := []bandit.Policy{
			bandit.UCBGreedy{},
			bandit.NewOracle(means),
			bandit.NewRandom(src.Split(int64(trial * 7))),
			bandit.NewThompson(src.Split(int64(trial * 11))),
			bandit.NewSlidingWindowUCB(1 + src.Intn(100)),
			bandit.NewDiscountedUCB(src.Uniform(0.9, 0.999)),
		}
		policy := policies[src.Intn(len(policies))]

		mech, err := NewMechanism(cfg, policy)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for !mech.Done() {
			if _, err := mech.Step(); err != nil {
				t.Fatalf("trial %d (%s): %v", trial, policy.Name(), err)
			}
		}
		res := mech.Result()
		if res.RoundsPlayed <= 0 || res.RoundsPlayed > n {
			t.Fatalf("trial %d: played %d of %d rounds", trial, res.RoundsPlayed, n)
		}
		for _, v := range []float64{res.RealizedRevenue, res.Regret, res.CumPoC, res.CumPoP, res.CumPoS, res.ConsumerSpend} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: non-finite metric %v in %+v", trial, v, res)
			}
		}
		if res.Regret < -1e-9 || res.RealizedRevenue < 0 || res.ConsumerSpend < 0 {
			t.Fatalf("trial %d: negative metric: %+v", trial, res)
		}
		if imb := mech.Market().Ledger().TotalImbalance(); math.Abs(imb) > 1e-6 {
			t.Fatalf("trial %d: ledger imbalance %v", trial, imb)
		}
		if res.Stopped == "" && res.RoundsPlayed != n {
			t.Fatalf("trial %d: unexplained early stop after %d rounds", trial, res.RoundsPlayed)
		}
	}
}
