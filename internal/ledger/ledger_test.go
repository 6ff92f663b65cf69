package ledger

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTransferBasics(t *testing.T) {
	l := New()
	if err := l.Transfer(Consumer, Platform, 10); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -10 || l.Balance(Platform) != 10 {
		t.Errorf("balances %v / %v", l.Balance(Consumer), l.Balance(Platform))
	}
	if err := l.Transfer(Platform, Seller(0), 4); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Platform) != 6 || l.Balance(Seller(0)) != 4 {
		t.Errorf("balances %v / %v", l.Balance(Platform), l.Balance(Seller(0)))
	}
}

func TestTransferRejectsBadAmounts(t *testing.T) {
	l := New()
	for _, amt := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := l.Transfer(Consumer, Platform, amt); err == nil {
			t.Errorf("amount %v should be rejected", amt)
		}
	}
	// A rejected transfer must not touch any balance.
	if len(l.State().Balances) != 0 {
		t.Errorf("rejected transfer had side effects: %v", l.State().Balances)
	}
}

// TestZeroTransferAccepted: a no-trade round settles a zero reward,
// which must book cleanly and move nothing.
func TestZeroTransferAccepted(t *testing.T) {
	l := New()
	if err := l.Transfer(Consumer, Platform, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.SettleRoundSorted(3, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != 0 || l.Balance(Platform) != 0 {
		t.Errorf("zero transfer moved money: %v", l.State().Balances)
	}
}

// TestConservationProperty: any sequence of valid transfers keeps the
// total imbalance at (numerical) zero, and the exported balances
// restore.
func TestConservationProperty(t *testing.T) {
	f := func(ops []struct {
		From, To uint8
		Amt      float64
	}) bool {
		l := New()
		accounts := []Account{Consumer, Platform, Seller(0), Seller(1), Seller(2)}
		for _, op := range ops {
			amt := math.Abs(op.Amt)
			if math.IsNaN(amt) || math.IsInf(amt, 0) || amt > 1e12 {
				continue
			}
			from := accounts[int(op.From)%len(accounts)]
			to := accounts[int(op.To)%len(accounts)]
			if err := l.Transfer(from, to, amt); err != nil {
				return false
			}
		}
		return math.Abs(l.TotalImbalance()) < 1e-6 && New().Restore(l.State()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSettleRound(t *testing.T) {
	l := New()
	if err := l.SettleRoundSorted(5, 100, []int{2, 7}, []float64{30, 20}); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -100 {
		t.Errorf("consumer %v", l.Balance(Consumer))
	}
	if l.Balance(Platform) != 50 {
		t.Errorf("platform %v", l.Balance(Platform))
	}
	if l.Balance(Seller(2)) != 30 || l.Balance(Seller(7)) != 20 {
		t.Error("seller balances wrong")
	}
	if imbalance := l.TotalImbalance(); math.Abs(imbalance) > 1e-12 {
		t.Errorf("imbalance %v", imbalance)
	}
}

// TestSettleRoundPropagatesErrors: every malformed settlement is
// rejected before anything is booked.
func TestSettleRoundPropagatesErrors(t *testing.T) {
	l := New()
	bad := []struct {
		name   string
		reward float64
		ids    []int
		pay    []float64
	}{
		{"negative reward", -5, nil, nil},
		{"NaN seller payment", 5, []int{0}, []float64{math.NaN()}},
		{"negative seller payment", 5, []int{0, 1}, []float64{1, -1}},
		{"length mismatch", 5, []int{0, 1}, []float64{1}},
		{"unsorted ids", 5, []int{1, 0}, []float64{1, 1}},
		{"duplicate ids", 5, []int{1, 1}, []float64{1, 1}},
	}
	for _, tc := range bad {
		if err := l.SettleRoundSorted(1, tc.reward, tc.ids, tc.pay); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if len(l.State().Balances) != 0 {
		t.Errorf("rejected settlements had side effects: %v", l.State().Balances)
	}
}

// TestStateIsCopy: the exported balances are a copy, and a restored
// ledger does not alias the state it was restored from.
func TestStateIsCopy(t *testing.T) {
	l := New()
	_ = l.Transfer(Consumer, Platform, 1)
	st := l.State()
	st.Balances[Platform] = 999
	if l.Balance(Platform) != 1 {
		t.Error("State leaked internal balances")
	}
	r := New()
	if err := r.Restore(l.State()); err != nil {
		t.Fatal(err)
	}
	_ = l.Transfer(Consumer, Platform, 1)
	if r.Balance(Platform) != 1 || r.Balance(Consumer) != -1 {
		t.Errorf("restored ledger %v", r.State().Balances)
	}
}

// TestRestoreRejectsNonFinite: a tampered state carrying a NaN or
// infinite balance is refused, and the ledger keeps its balances.
func TestRestoreRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := New()
		_ = l.Transfer(Consumer, Platform, 3)
		st := l.State()
		st.Balances[Seller(4)] = v
		if err := l.Restore(st); !errors.Is(err, ErrBadAmount) {
			t.Errorf("balance %v: got %v, want ErrBadAmount", v, err)
		}
		if l.Balance(Platform) != 3 {
			t.Errorf("balance %v: failed restore changed the ledger", v)
		}
	}
}

// TestRestoreRejectsImbalance: balances that do not sum to zero would
// mint or burn money, and are refused; rounding-level drift is not.
func TestRestoreRejectsImbalance(t *testing.T) {
	l := New()
	if err := l.SettleRoundSorted(1, 100, []int{0, 1}, []float64{30, 20}); err != nil {
		t.Fatal(err)
	}
	st := l.State()
	st.Balances[Seller(1)] += 1e-3
	if err := New().Restore(st); !errors.Is(err, ErrImbalance) {
		t.Errorf("tampered seller balance: got %v, want ErrImbalance", err)
	}
	st = l.State()
	st.Balances[Consumer] = math.Nextafter(st.Balances[Consumer], 0)
	if err := New().Restore(st); err != nil {
		t.Errorf("one-ulp drift rejected: %v", err)
	}
	if err := New().Restore(State{}); err != nil {
		t.Errorf("empty state rejected: %v", err)
	}
}

func TestSellerAccountNames(t *testing.T) {
	if Seller(0) != "seller-0" || Seller(42) != "seller-42" {
		t.Error("unexpected seller account format")
	}
}
