// Package ledger implements the payment-settlement substrate of the
// CDT incentive mechanism (Definition 5): once a round's incentive
// strategy ⟨p^J, p, τ⟩ is fixed, the consumer pays the platform
// p^J·Στ_i and the platform pays each selected seller p·τ_i; the
// difference is the platform's commission. The ledger double-books
// every transfer into per-account balances, so conservation (Σ
// balances = 0 for accounts that start empty) is an enforced invariant
// rather than an assumption. It keeps balances only — its state is
// bounded by the number of accounts, never by the rounds settled. The
// per-round payments are recorded by the round log (internal/roundlog).
package ledger

import (
	"errors"
	"fmt"
	"math"
)

// Account identifies a trading party.
type Account string

// Well-known accounts of a CDT market; sellers get Seller(i).
const (
	Consumer Account = "consumer"
	Platform Account = "platform"
)

// Seller returns the account of seller i.
func Seller(i int) Account { return Account(fmt.Sprintf("seller-%d", i)) }

// Errors returned by Ledger operations.
var (
	ErrNegativeAmount = errors.New("ledger: negative transfer amount")
	ErrBadAmount      = errors.New("ledger: amount must be finite")
	ErrImbalance      = errors.New("ledger: balances do not sum to zero")
)

// conservationTol bounds |Σ balances| relative to Σ|balances| on
// Restore. Each transfer's two roundings leave the sum off by about
// one ulp of the amount: a 100k-round session at M=100, K=10 drifts
// ~1e-14 relatively, while a tampered balance moves it by far more.
const conservationTol = 1e-9

// Ledger tracks per-account balances. Balances may go negative:
// parties fund payments from external wealth, and a negative balance
// is exactly their net spend.
type Ledger struct {
	balances map[Account]float64
	sellers  []Account // memoized Seller(i) strings, grown on demand
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{balances: make(map[Account]float64)}
}

// Transfer moves amount from one account to another. Zero amounts
// are accepted (a no-trade round settles a zero reward); negative or
// non-finite amounts are rejected without touching any balance.
func (l *Ledger) Transfer(from, to Account, amount float64) error {
	if err := checkAmount(amount); err != nil {
		return err
	}
	l.move(from, to, amount)
	return nil
}

// move books a validated transfer.
func (l *Ledger) move(from, to Account, amount float64) {
	l.balances[from] -= amount
	l.balances[to] += amount
}

func checkAmount(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w (got %v)", ErrBadAmount, v)
	}
	if v < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeAmount, v)
	}
	return nil
}

// Balance returns the account's current net position.
func (l *Ledger) Balance(a Account) float64 { return l.balances[a] }

// TotalImbalance returns Σ balances, which must stay ~0: transfers
// only move money, never create it. Callers assert this invariant.
func (l *Ledger) TotalImbalance() float64 {
	var sum float64
	for _, v := range l.balances {
		sum += v
	}
	return sum
}

// State is the serializable state of a Ledger: its balances.
type State struct {
	Balances map[Account]float64 `json:"balances"`
}

// State exports the ledger for persistence.
func (l *Ledger) State() State {
	bal := make(map[Account]float64, len(l.balances))
	for a, v := range l.balances {
		bal[a] = v
	}
	return State{Balances: bal}
}

// Restore replaces the ledger's contents with exported balances. A
// corrupted snapshot cannot smuggle in money: every balance must be
// finite and together they must sum to zero within conservationTol.
func (l *Ledger) Restore(st State) error {
	bal := make(map[Account]float64, len(st.Balances))
	var sum, abs float64
	for a, v := range st.Balances {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s has balance %v", ErrBadAmount, a, v)
		}
		bal[a] = v
		sum += v
		abs += math.Abs(v)
	}
	if math.Abs(sum) > conservationTol*abs {
		return fmt.Errorf("%w: Σ = %g over Σ|·| = %g", ErrImbalance, sum, abs)
	}
	l.balances = bal
	return nil
}

// SettleRoundSorted books one round's CDT payments: the consumer pays
// the platform reward (p^J·Στ) and the platform pays seller ids[j]
// pay[j] (p·τ_i). ids must be sorted ascending and free of duplicates
// so the booking order, and with it every rounded balance, is
// deterministic. Violations are rejected before anything is booked,
// so a failed call leaves the ledger untouched; round only labels the
// error.
func (l *Ledger) SettleRoundSorted(round int, reward float64, ids []int, pay []float64) error {
	if len(ids) != len(pay) {
		return fmt.Errorf("ledger: round %d: %d seller ids for %d payments", round, len(ids), len(pay))
	}
	for j := 1; j < len(ids); j++ {
		if ids[j] <= ids[j-1] {
			return fmt.Errorf("ledger: round %d: seller ids not strictly ascending at %d", round, j)
		}
	}
	if err := checkAmount(reward); err != nil {
		return fmt.Errorf("ledger: round %d: %w", round, err)
	}
	for _, v := range pay {
		if err := checkAmount(v); err != nil {
			return fmt.Errorf("ledger: round %d: %w", round, err)
		}
	}
	l.move(Consumer, Platform, reward)
	for j, id := range ids {
		l.move(Platform, l.sellerAccount(id), pay[j])
	}
	return nil
}

// sellerAccount returns Seller(i) from a memoized table so the hot
// settle path does not re-format the account string every round.
func (l *Ledger) sellerAccount(i int) Account {
	if i < 0 {
		return Seller(i) // out-of-model id; format directly
	}
	for len(l.sellers) <= i {
		l.sellers = append(l.sellers, Seller(len(l.sellers)))
	}
	return l.sellers[i]
}
