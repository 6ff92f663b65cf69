package main

import (
	"time"

	"cmabhs/internal/bandit"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/ledger"
	"cmabhs/internal/rng"
)

// microResult holds the per-call costs of each mechanism package's
// public functions at one workload's M and K.
type microResult struct {
	selectK     float64 // ns per IncrementalUCB.SelectK
	ucbGreedy   float64 // ns per UCBGreedy.SelectK
	solve       float64 // ns per game.Params.SolveInto
	truncNormal float64 // ns per rng.Source.TruncNormal
	settle      float64 // ns per ledger.Ledger.SettleRoundSorted at the given age
}

// microRounds is how many simulated rounds each selector is timed over.
const microRounds = 4000

// runMicro times the package calls a mechanism round makes, outside
// the mechanism, on inputs drawn from seed. age is the number of rounds
// the ledger has already settled when its settle call is timed.
func runMicro(seed int64, m, k, age int) microResult {
	var res microResult
	src := rng.New(seed)
	means := make([]float64, m)
	for i := range means {
		means[i] = src.Float64()
	}

	// Both selectors see the same learning trajectory: each round the
	// incremental policy's picks are observed and folded into both
	// estimators (with the change notification the mechanism sends).
	inc := bandit.NewIncrementalUCB()
	armsInc, armsFull := bandit.NewArms(m), bandit.NewArms(m)
	obs := make([]float64, 10)
	var incT, fullT time.Duration
	for round := 1; round <= microRounds; round++ {
		t0 := time.Now()
		sel := inc.SelectK(round, armsInc, k)
		t1 := time.Now()
		_ = bandit.UCBGreedy{}.SelectK(round, armsFull, k)
		t2 := time.Now()
		incT += t1.Sub(t0)
		fullT += t2.Sub(t1)
		for _, i := range sel {
			for j := range obs {
				obs[j] = src.TruncNormal(means[i], 0.1, 0, 1)
			}
			armsInc.Update(i, obs)
			armsFull.Update(i, obs)
			inc.ArmChanged(i)
		}
	}
	res.selectK = float64(incT.Nanoseconds()) / microRounds
	res.ucbGreedy = float64(fullT.Nanoseconds()) / microRounds

	const draws = 200_000
	t0 := time.Now()
	var acc float64
	for i := 0; i < draws; i++ {
		acc += src.TruncNormal(means[i%m], 0.1, 0, 1)
	}
	res.truncNormal = float64(time.Since(t0).Nanoseconds()) / draws
	sinkFloat = acc

	prm := &game.Params{
		Sellers:   make([]economics.SellerCost, k),
		Qualities: make([]float64, k),
		Platform:  economics.PlatformCost{Theta: 0.1, Lambda: 1},
		Consumer:  economics.Valuation{Omega: 1000},
		PJBounds:  game.Bounds{Min: 0, Max: 100},
		PBounds:   game.Bounds{Min: 0, Max: 5},
	}
	for i := 0; i < k; i++ {
		prm.Sellers[i] = economics.SellerCost{A: src.Uniform(0.1, 0.5), B: src.Uniform(0.1, 1)}
		prm.Qualities[i] = src.Uniform(0.05, 1)
	}
	const solves = 50_000
	var out game.Outcome
	t0 = time.Now()
	for i := 0; i < solves; i++ {
		if _, err := prm.SolveInto(&out); err != nil {
			panic(err) // parameters are drawn inside the model's domain
		}
	}
	res.solve = float64(time.Since(t0).Nanoseconds()) / solves

	res.settle = timeSettle(src, m, k, age)
	return res
}

// timeSettle ages a ledger by age rounds of K payments, then times the
// settle calls of the next rounds: the cost a round pays at that age.
// Inputs are drawn before the clock starts.
func timeSettle(src *rng.Source, m, k, age int) float64 {
	const timed = 20_000
	l := ledger.New()
	ids := make([]int, (timed+1)*k)
	pay := make([]float64, (timed+1)*k)
	reward := make([]float64, timed+1)
	draw := func(slot int) {
		start := src.Intn(m - k + 1)
		for j := 0; j < k; j++ {
			ids[slot*k+j] = start + j
			pay[slot*k+j] = src.Uniform(0, 5)
		}
		reward[slot] = src.Uniform(0, 100)
	}
	settle := func(round, slot int) {
		if err := l.SettleRoundSorted(round, reward[slot], ids[slot*k:(slot+1)*k], pay[slot*k:(slot+1)*k]); err != nil {
			panic(err) // ids ascend and amounts are finite and positive
		}
	}
	for r := 1; r <= age; r++ {
		draw(0)
		settle(r, 0)
	}
	for i := 1; i <= timed; i++ {
		draw(i)
	}
	t0 := time.Now()
	for i := 1; i <= timed; i++ {
		settle(age+i, i)
	}
	return float64(time.Since(t0).Nanoseconds()) / timed
}

// sinkFloat keeps timed results observable so the compiler cannot drop
// the calls.
var sinkFloat float64

// setMicro reports the package-level costs.
func setMicro(rep *report, m microResult) {
	rep.set("bandit.selectk_ns", m.selectK, "ns")
	rep.set("bandit.ucbgreedy_ns", m.ucbGreedy, "ns")
	rep.set("game.solve_ns", m.solve, "ns")
	rep.set("rng.truncnormal_ns", m.truncNormal, "ns")
	rep.set("ledger.settle_ns", m.settle, "ns")
}
