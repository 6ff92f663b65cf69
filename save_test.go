package cmabhs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"cmabhs"
)

// saveTestConfig exercises every stateful subsystem at once: an
// RNG-carrying policy, transient delivery failures, the raw-data
// layer (sensor noise stream), per-round records, and checkpoints.
func saveTestConfig() cmabhs.Config {
	cfg := cmabhs.RandomConfig(12, 4, 60, 7)
	cfg.Policy = cmabhs.PolicyThompson
	cfg.DeliveryRate = 0.9
	cfg.CollectData = true
	cfg.KeepRounds = true
	cfg.Checkpoints = []int{10, 30, 50}
	return cfg
}

// resultsIdentical compares public Results tolerating NaN-valued
// metrics (NaN != NaN) but requiring bit-identity everywhere else.
func resultsIdentical(a, b *cmabhs.Result) bool {
	na, nb := *a, *b
	for _, p := range []*float64{&na.AggregationRMSE, &na.DynamicRegret} {
		if math.IsNaN(*p) {
			*p = -1
		}
	}
	for _, p := range []*float64{&nb.AggregationRMSE, &nb.DynamicRegret} {
		if math.IsNaN(*p) {
			*p = -1
		}
	}
	return reflect.DeepEqual(na, nb)
}

// TestSessionSaveResume: a run interrupted at various rounds, saved,
// and resumed must finish with a Result identical to the
// uninterrupted run.
func TestSessionSaveResume(t *testing.T) {
	ref, err := cmabhs.Run(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, breakAt := range []int{1, 17, 59} {
		sess, err := cmabhs.NewSession(saveTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.StepN(breakAt); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := cmabhs.ResumeSession(data)
		if err != nil {
			t.Fatalf("break at %d: %v", breakAt, err)
		}
		if resumed.NextRound() != breakAt+1 {
			t.Fatalf("break at %d: resumed at round %d", breakAt, resumed.NextRound())
		}
		if got := resumed.Config().Rounds; got != 60 {
			t.Fatalf("break at %d: resumed config has %d rounds", breakAt, got)
		}
		if _, err := resumed.StepN(0); err != nil {
			t.Fatal(err)
		}
		if !resumed.Done() {
			t.Fatalf("break at %d: resumed session not done", breakAt)
		}
		if got := resumed.Result(); !resultsIdentical(ref, got) {
			t.Errorf("break at %d: resumed result differs from uninterrupted run:\nref %+v\ngot %+v",
				breakAt, ref, got)
		}
	}
}

// TestSessionSaveIsStable: saving twice without stepping in between
// yields identical bytes, and saving does not perturb the run.
func TestSessionSaveIsStable(t *testing.T) {
	sess, err := cmabhs.NewSession(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepN(10); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("back-to-back saves differ")
	}
	if _, err := sess.StepN(0); err != nil {
		t.Fatal(err)
	}
	withSaves := sess.Result()
	ref, err := cmabhs.Run(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(ref, withSaves) {
		t.Error("saving mid-run perturbed the result")
	}
}

// TestResumeSessionErrors: malformed snapshots error instead of
// producing a corrupt session.
func TestResumeSessionErrors(t *testing.T) {
	sess, err := cmabhs.NewSession(saveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepN(5); err != nil {
		t.Fatal(err)
	}
	data, err := sess.Save()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cmabhs.ResumeSession(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := cmabhs.ResumeSession(data[:len(data)/3]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	bumped := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":9`), 1)
	if _, err := cmabhs.ResumeSession(bumped); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version bump: got %v", err)
	}

	var loose map[string]json.RawMessage
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	loose["extra"] = json.RawMessage(`true`)
	withUnknown, err := json.Marshal(loose)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cmabhs.ResumeSession(withUnknown); err == nil {
		t.Error("unknown envelope field accepted")
	}
}

// v1FixtureConfig is the session saved in testdata/session-v1.json.
func v1FixtureConfig() cmabhs.Config {
	cfg := cmabhs.RandomConfig(8, 3, 40, 11)
	cfg.Policy = cmabhs.PolicyThompson
	cfg.DeliveryRate = 0.9
	return cfg
}

// TestResumeVersion1Snapshot: a snapshot written before the ledger
// kept balances alone (mechanism state version 1, whose ledger was a
// journal of every transfer) still resumes, and continues exactly as
// a session that was never interrupted — same Result, and the same
// bytes when both are saved at the end, ledger balances included.
//
// The fixture was written by commit b6d84a4, the last with state
// version 1, with:
//
//	sess, _ := cmabhs.NewSession(v1FixtureConfig())
//	sess.StepN(15)
//	data, _ := sess.Save()
//	os.WriteFile("testdata/session-v1.json", data, 0o644)
func TestResumeVersion1Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/session-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"journal":[`)) {
		t.Fatal("fixture is not a version-1 snapshot")
	}
	resumed, err := cmabhs.ResumeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NextRound() != 16 {
		t.Fatalf("resumed at round %d, want 16", resumed.NextRound())
	}
	ref, err := cmabhs.NewSession(v1FixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*cmabhs.Session{resumed, ref} {
		if _, err := s.StepN(0); err != nil {
			t.Fatal(err)
		}
	}
	if !resultsIdentical(ref.Result(), resumed.Result()) {
		t.Errorf("resumed result differs from uninterrupted run:\nref %+v\ngot %+v", ref.Result(), resumed.Result())
	}
	a, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("resumed session saves different state than the uninterrupted one")
	}
}

// TestSaveSizeBoundedByMK: a session's snapshot is bounded by M and K,
// not by the rounds played — at M=100, K=10 it is the same size
// within 1% after 1k and after 10k rounds, and both resume.
func TestSaveSizeBoundedByMK(t *testing.T) {
	sess, err := cmabhs.NewSession(cmabhs.RandomConfig(100, 10, 10000, 3))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, n := range []int{1000, 9000} {
		if _, err := sess.Advance(n); err != nil {
			t.Fatal(err)
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cmabhs.ResumeSession(data); err != nil {
			t.Fatalf("round %d: %v", sess.NextRound()-1, err)
		}
		sizes = append(sizes, len(data))
	}
	if d := math.Abs(float64(sizes[1]-sizes[0])) / float64(sizes[0]); d > 0.01 {
		t.Errorf("snapshot grew from %d bytes at 1k rounds to %d at 10k (%.1f%%)", sizes[0], sizes[1], 100*d)
	}
}

// TestResultAvgGuardsPublic: the public per-round averages must not
// emit NaN before any round has been played.
func TestResultAvgGuardsPublic(t *testing.T) {
	var r cmabhs.Result
	if v := r.AvgConsumerProfit(); v != 0 {
		t.Errorf("AvgConsumerProfit on empty result = %v", v)
	}
	if v := r.AvgPlatformProfit(); v != 0 {
		t.Errorf("AvgPlatformProfit on empty result = %v", v)
	}
	if v := r.AvgSellerProfit(3); v != 0 {
		t.Errorf("AvgSellerProfit on empty result = %v", v)
	}
}
