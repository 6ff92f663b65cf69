package roundlog

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cmabhs/internal/bandit"
	"cmabhs/internal/core"
	"cmabhs/internal/economics"
	"cmabhs/internal/game"
	"cmabhs/internal/market"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

func runWithJournal(t *testing.T) (*bytes.Buffer, *core.Result) {
	t.Helper()
	src := rng.New(3)
	means := make([]float64, 10)
	for i := range means {
		means[i] = src.Uniform(0.05, 0.95)
	}
	model, err := quality.NewTruncGaussian(means, 0.1, src.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	sellers := make([]market.SellerSpec, 10)
	for i := range sellers {
		sellers[i] = market.SellerSpec{Cost: economics.SellerCost{
			A: src.Uniform(0.1, 0.5), B: src.Uniform(0.1, 1),
		}}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "CMAB-HS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &core.Config{
		Market: market.Config{
			Job:      market.Job{L: 4, N: 300},
			Sellers:  sellers,
			Platform: economics.PlatformCost{Theta: 0.1, Lambda: 1},
			Consumer: economics.Valuation{Omega: 1000},
			PJBounds: game.Bounds{Min: 0, Max: 100},
			PBounds:  game.Bounds{Min: 0, Max: 5},
			Quality:  model,
		},
		K: 3,
		Observer: func(ev *core.RoundEvent) {
			if err := w.Append(ev.Record); err != nil {
				t.Fatal(err)
			}
		},
	}
	res, err := core.Run(cfg, bandit.UCBGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, res
}

// TestJournalRoundTripAndVerify: a full run journaled via the
// Observer replays to exactly the reported result.
func TestJournalRoundTripAndVerify(t *testing.T) {
	buf, res := runWithJournal(t)
	policy, rounds, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if policy != "CMAB-HS" {
		t.Errorf("policy %q", policy)
	}
	if len(rounds) != 300 {
		t.Fatalf("journal has %d rounds", len(rounds))
	}
	if rounds[0].Round != 1 || len(rounds[0].Selected) != 10 {
		t.Errorf("round 1 record %+v", rounds[0])
	}
	rep := Summarize(rounds)
	if err := Verify(rep, res, 1e-9); err != nil {
		t.Fatal(err)
	}
	// The journal also reconciles money flows: spend covers payouts
	// plus the platform's net (ignoring its aggregation cost, which
	// is not a transfer).
	if rep.SellerPayout > rep.ConsumerSpend {
		t.Errorf("payout %v exceeds spend %v", rep.SellerPayout, rep.ConsumerSpend)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	buf, res := runWithJournal(t)
	_, rounds, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rounds[42].Realized *= 2 // cook the books
	if err := Verify(Summarize(rounds), res, 1e-9); err == nil {
		t.Fatal("tampered journal should fail verification")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no header", `{"t":1}` + "\n"},
		{"wrong schema", `{"schema":"nope","version":1}` + "\n"},
		{"future version", `{"schema":"cdt-roundlog","version":99}` + "\n"},
		{"bad entry", `{"schema":"cdt-roundlog","version":1}` + "\nnot json\n"},
	}
	for _, tc := range cases {
		if _, _, err := Read(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Blank lines are tolerated.
	in := `{"schema":"cdt-roundlog","version":1}` + "\n\n" +
		`{"t":1,"sel":[0],"pj":1,"p":1,"tau":[1],"poc":1,"pop":1,"pos":[1],"rev":1}` + "\n"
	_, rounds, err := Read(strings.NewReader(in))
	if err != nil || len(rounds) != 1 {
		t.Fatalf("blank-line journal: %v, %d rounds", err, len(rounds))
	}
	if rounds[0].TotalTau != 1 || !math.IsNaN(rounds[0].AggRMSE) {
		t.Errorf("derived fields wrong: %+v", rounds[0])
	}
}

func TestSummarizeEmpty(t *testing.T) {
	rep := Summarize(nil)
	if rep.Rounds != 0 || rep.RealizedRevenue != 0 {
		t.Errorf("empty replay %+v", rep)
	}
}
