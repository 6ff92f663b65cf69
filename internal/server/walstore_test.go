package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmabhs/internal/core"
)

func newWALStore(t *testing.T) *WALStore {
	t.Helper()
	ws, err := NewWALStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return ws
}

func walRecs(base, n int) []core.RoundRecord {
	recs := make([]core.RoundRecord, n)
	for i := range recs {
		recs[i] = core.RoundRecord{Round: base + i, Selected: []int{0}, PJ: float64(base + i), Realized: 1}
	}
	return recs
}

func TestWALStoreAppendLoadCycle(t *testing.T) {
	ws := newWALStore(t)
	if err := ws.ResetWAL("job-1", 1); err != nil {
		t.Fatal(err)
	}
	if n, err := ws.AppendWAL("job-1", walRecs(1, 3)); err != nil || n != 3 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	if n, err := ws.AppendWAL("job-1", walRecs(4, 2)); err != nil || n != 5 {
		t.Fatalf("second append: n=%d err=%v", n, err)
	}
	seg, err := ws.LoadWAL("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if seg == nil || seg.Base != 1 || seg.Torn || len(seg.Rounds) != 5 {
		t.Fatalf("segment: %+v", seg)
	}
	for i, r := range seg.Rounds {
		if r.Round != i+1 {
			t.Fatalf("round %d holds index %d", i, r.Round)
		}
	}

	// Reset folds the tail away; the new segment starts at the new base.
	if err := ws.ResetWAL("job-1", 6); err != nil {
		t.Fatal(err)
	}
	seg, err = ws.LoadWAL("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Base != 6 || len(seg.Rounds) != 0 {
		t.Fatalf("after reset: %+v", seg)
	}

	st := ws.WALStats()
	if st.OpenSegments != 1 || st.AppendedRounds != 5 || st.Resets != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWALStoreAppendWithoutResetFails(t *testing.T) {
	ws := newWALStore(t)
	if _, err := ws.AppendWAL("job-1", walRecs(1, 1)); err == nil {
		t.Fatal("append without an open segment succeeded")
	}
}

func TestWALStoreMissingSegmentLoadsNil(t *testing.T) {
	ws := newWALStore(t)
	seg, err := ws.LoadWAL("job-9")
	if err != nil || seg != nil {
		t.Fatalf("missing segment: seg=%v err=%v", seg, err)
	}
}

func TestWALStoreTornTailCounted(t *testing.T) {
	ws := newWALStore(t)
	if err := ws.ResetWAL("job-1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AppendWAL("job-1", walRecs(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Tear the final record the way a kill -9 mid-write would.
	path := filepath.Join(ws.Dir(), "job-1.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	seg, err := ws.LoadWAL("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Torn || len(seg.Rounds) != 1 {
		t.Fatalf("torn load: torn=%v rounds=%d", seg.Torn, len(seg.Rounds))
	}
	if st := ws.WALStats(); st.TornTails != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWALStoreDeleteRemovesSegment(t *testing.T) {
	ws := newWALStore(t)
	if err := ws.Save("job-1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := ws.ResetWAL("job-1", 1); err != nil {
		t.Fatal(err)
	}
	if err := ws.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ws.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file %q after delete", e.Name())
	}
	if st := ws.WALStats(); st.OpenSegments != 0 {
		t.Fatalf("open segment after delete: %+v", st)
	}
}

// The whole tentpole in one arc: a broker on a WAL store is killed
// without any graceful shutdown (no SaveAll), restarted, and must
// resume at the exact round the last advance reached — not at the
// last explicit snapshot.
func TestWALBrokerCrashRecoveryRoundGranular(t *testing.T) {
	dir := t.TempDir()
	ws, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	srv := New()
	srv.Store = ws
	srv.CompactEvery = 25 // force compactions mid-run
	ts := httptest.NewServer(srv.Handler())

	var st JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{
		RandomSellers: 12, K: 3, Rounds: 500, Seed: 42,
	}, &st); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	var adv AdvanceResponse
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance",
		AdvanceRequest{Rounds: 137}, &adv); code != http.StatusOK {
		t.Fatalf("advance status %d", code)
	}
	if adv.Status.NextRound != 138 {
		t.Fatalf("advanced to %d, want 138", adv.Status.NextRound)
	}

	// Kill -9: drop the server with no SaveAll, reopen the directory.
	ts.Close()
	ws.Close()
	ws2, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	srv2 := New()
	srv2.Store = ws2
	if err := srv2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var got JobStatus
	if code := do(t, ts2, http.MethodGet, "/v1/jobs/"+st.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get after recovery: %d", code)
	}
	if got.NextRound != 138 {
		t.Fatalf("recovered at round %d, want 138 (round-granular)", got.NextRound)
	}

	// New ids must be minted past the recovered one.
	var st2 JobStatus
	if code := do(t, ts2, http.MethodPost, "/v1/jobs", JobRequest{
		RandomSellers: 5, K: 2, Rounds: 10, Seed: 1,
	}, &st2); code != http.StatusCreated {
		t.Fatalf("create after recovery: %d", code)
	}
	if st2.ID == st.ID {
		t.Fatalf("recovered id %q re-minted", st.ID)
	}

	// And the recovered job still runs to completion.
	if code := do(t, ts2, http.MethodPost, "/v1/jobs/"+st.ID+"/advance",
		AdvanceRequest{Rounds: 1000}, &adv); code != http.StatusOK {
		t.Fatalf("advance after recovery: %d", code)
	}
	if !adv.Status.Done || adv.Status.NextRound != 501 {
		t.Fatalf("post-recovery run: %+v", adv.Status)
	}
}

// Healthz on a WAL broker reports the store kind, shard count, and
// segment stats, with the pre-existing fields untouched.
func TestHealthzWALFields(t *testing.T) {
	ws := newWALStore(t)
	srv := New()
	srv.Store = ws
	srv.Shards = 8
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 5, K: 2, Rounds: 10, Seed: 1}, nil)
	do(t, ts, http.MethodPost, "/v1/jobs/job-1/advance", AdvanceRequest{Rounds: 4}, nil)

	var h Healthz
	if code := do(t, ts, http.MethodGet, "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.Status != "ok" || h.StateStore != "ok" || h.Jobs != 1 {
		t.Fatalf("pre-existing fields drifted: %+v", h)
	}
	if h.StoreKind != "wal" || h.Shards != 8 {
		t.Fatalf("store_kind=%q shards=%d", h.StoreKind, h.Shards)
	}
	if h.WAL == nil || h.WAL.OpenSegments != 1 || h.WAL.AppendedRounds != 4 {
		t.Fatalf("wal stats: %+v", h.WAL)
	}
}

func TestStoreKinds(t *testing.T) {
	if k := (&Server{}).storeKind(); k != "disabled" {
		t.Errorf("nil store: %q", k)
	}
	if k := (&Server{Store: newWALStore(t)}).storeKind(); k != "wal" {
		t.Errorf("wal store: %q", k)
	}
}

// A WAL broker whose segment was torn by the crash must discard the
// partial record and still recover bit-identically: the torn round is
// simply replayed live after resume.
func TestWALBrokerRecoversFromTornTail(t *testing.T) {
	dir := t.TempDir()
	ws, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	srv.Store = ws
	ts := httptest.NewServer(srv.Handler())

	var st JobStatus
	do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{RandomSellers: 10, K: 3, Rounds: 100, Seed: 5}, &st)
	var adv AdvanceResponse
	do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 40}, &adv)
	ts.Close()
	ws.Close()

	// Tear the last line mid-record.
	path := filepath.Join(dir, st.ID+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 41 { // header + 40 rounds
		t.Fatalf("segment has %d lines, want 41", lines)
	}
	if err := os.Truncate(path, int64(len(data)-9)); err != nil {
		t.Fatal(err)
	}

	ws2, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	srv2 := New()
	srv2.Store = ws2
	if err := srv2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var got JobStatus
	do(t, ts2, http.MethodGet, "/v1/jobs/"+st.ID, nil, &got)
	if got.NextRound != 40 { // round 40's record was torn: recovered through 39
		t.Fatalf("recovered at round %d, want 40", got.NextRound)
	}
	if st := ws2.WALStats(); st.TornTails != 1 {
		t.Fatalf("torn tail not counted: %+v", st)
	}
}
