package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The FileStore tests exercise WALStore's snapshot half (fileStore).

func TestFileStoreBasics(t *testing.T) {
	fs, err := NewWALStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if ids, err := fs.List(); err != nil || len(ids) != 0 {
		t.Fatalf("fresh store: ids %v err %v", ids, err)
	}
	if err := fs.Save("job-1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-1", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err) // overwrite must be fine
	}
	if err := fs.Save("job-10", []byte(`{"b":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load("job-1")
	if err != nil || !bytes.Equal(got, []byte(`{"a":2}`)) {
		t.Fatalf("load: %q err %v", got, err)
	}
	ids, err := fs.List()
	if err != nil || !reflect.DeepEqual(ids, []string{"job-1", "job-10"}) {
		t.Fatalf("list: %v err %v", ids, err)
	}
	if err := fs.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("job-1"); err != nil {
		t.Fatalf("deleting a missing id: %v", err)
	}
	if _, err := fs.Load("job-1"); err == nil {
		t.Fatal("load after delete succeeded")
	}
	// No temp litter after saves.
	entries, err := os.ReadDir(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestFileStoreRejectsBadIDs(t *testing.T) {
	fs := newWALStore(t)
	for _, id := range []string{"", "../escape", "a/b", "a.b", "x y"} {
		if err := fs.Save(id, []byte("{}")); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func persistentTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	fs, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	srv := New()
	srv.Store = fs
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

var persistJobReq = JobRequest{RandomSellers: 12, K: 3, Rounds: 40, Seed: 21, Policy: "thompson"}

// TestBrokerRestartMidJob is the acceptance path of broker
// durability: advance a job partway, snapshot, kill the broker, start
// a new broker on the same state dir, and the reloaded job continues
// from the persisted round to a result identical to a never-restarted
// run.
func TestBrokerRestartMidJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")

	// The reference: one broker, no restart.
	_, refTS := persistentTestServer(t, filepath.Join(t.TempDir(), "ref-state"))
	var refSt JobStatus
	if code := do(t, refTS, http.MethodPost, "/v1/jobs", persistJobReq, &refSt); code != http.StatusCreated {
		t.Fatalf("ref create: %d", code)
	}
	var refAdv AdvanceResponse
	if code := do(t, refTS, http.MethodPost, "/v1/jobs/"+refSt.ID+"/advance", AdvanceRequest{Rounds: 40}, &refAdv); code != http.StatusOK {
		t.Fatalf("ref advance: %d", code)
	}
	if !refAdv.Status.Done {
		t.Fatal("reference job not done")
	}

	// Broker #1: create, advance 15 rounds, snapshot, shut down.
	srv1, ts1 := persistentTestServer(t, dir)
	var st JobStatus
	if code := do(t, ts1, http.MethodPost, "/v1/jobs", persistJobReq, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var adv AdvanceResponse
	if code := do(t, ts1, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 15}, &adv); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	var snap SnapshotResponse
	if code := do(t, ts1, http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if !snap.Persisted || snap.ID != st.ID || len(snap.Snapshot) == 0 {
		t.Fatalf("snapshot response %+v", snap)
	}
	// Graceful-shutdown path: SaveAll persists the latest state.
	if err := srv1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Broker #2 on the same state dir: the job is back, mid-run.
	srv2, ts2 := persistentTestServer(t, dir)
	if err := srv2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	var reloaded JobStatus
	if code := do(t, ts2, http.MethodGet, "/v1/jobs/"+st.ID, nil, &reloaded); code != http.StatusOK {
		t.Fatalf("reloaded job missing: %d", code)
	}
	if reloaded.NextRound != 16 {
		t.Fatalf("reloaded job at round %d, want 16", reloaded.NextRound)
	}
	if reloaded.Sellers != 12 || reloaded.K != 3 || reloaded.Rounds != 40 {
		t.Fatalf("reloaded job lost its shape: %+v", reloaded)
	}
	// A fresh job on broker #2 must not collide with the loaded id.
	var fresh JobStatus
	if code := do(t, ts2, http.MethodPost, "/v1/jobs", persistJobReq, &fresh); code != http.StatusCreated {
		t.Fatalf("fresh create: %d", code)
	}
	if fresh.ID == st.ID {
		t.Fatalf("id %s reused after restart", fresh.ID)
	}

	// Finish the reloaded job: identical to the uninterrupted run.
	var adv2 AdvanceResponse
	if code := do(t, ts2, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 40}, &adv2); code != http.StatusOK {
		t.Fatalf("resume advance: %d", code)
	}
	if !adv2.Status.Done {
		t.Fatal("resumed job not done")
	}
	if !reflect.DeepEqual(adv2.Status.Result, refAdv.Status.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\nref %+v\ngot %+v",
			refAdv.Status.Result, adv2.Status.Result)
	}

	// DELETE drops the stored snapshot too.
	if code := do(t, ts2, http.MethodDelete, "/v1/jobs/"+st.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if _, err := srv2.Store.Load(st.ID); err == nil {
		t.Error("snapshot still stored after DELETE")
	}
}

// TestSnapshotOnlyStateDirResumes boots a state dir written by the
// broker's former snapshot-only mode (a snapshot, no `.wal` segment):
// the job resumes at its persisted round, gains a segment that makes
// its later rounds crash-durable, and finishes byte-identical to an
// uninterrupted run. testdata/snapshot-only/job-1.json was written by
// cdt-server at commit 5069ac1 started with -state-dir and no -wal:
// create persistJobReq, advance 15 rounds, SIGTERM.
func TestSnapshotOnlyStateDirResumes(t *testing.T) {
	_, refTS := persistentTestServer(t, t.TempDir())
	var ref JobStatus
	if code := do(t, refTS, http.MethodPost, "/v1/jobs", persistJobReq, &ref); code != http.StatusCreated {
		t.Fatalf("ref create: %d", code)
	}
	var refAdv AdvanceResponse
	if code := do(t, refTS, http.MethodPost, "/v1/jobs/"+ref.ID+"/advance", AdvanceRequest{Rounds: 40}, &refAdv); code != http.StatusOK || !refAdv.Status.Done {
		t.Fatalf("ref advance: %d %+v", code, refAdv.Status)
	}
	var refSnap SnapshotResponse
	do(t, refTS, http.MethodPost, "/v1/jobs/"+ref.ID+"/snapshot", nil, &refSnap)

	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot-only", "job-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := persistentTestServer(t, dir)
	if err := srv1.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-1.wal")); err != nil {
		t.Fatalf("no segment after boot: %v", err)
	}
	var adv AdvanceResponse
	if code := do(t, ts1, http.MethodPost, "/v1/jobs/job-1/advance", AdvanceRequest{Rounds: 10}, &adv); code != http.StatusOK || adv.Status.NextRound != 26 {
		t.Fatalf("advance after boot: %d, next round %d, want 26", code, adv.Status.NextRound)
	}
	ts1.Close()

	// Crash without SaveAll: the ten rounds are in the new segment.
	srv2, ts2 := persistentTestServer(t, dir)
	if err := srv2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if code := do(t, ts2, http.MethodPost, "/v1/jobs/job-1/advance", AdvanceRequest{Rounds: 40}, &adv); code != http.StatusOK || !adv.Status.Done {
		t.Fatalf("resume advance: %d %+v", code, adv.Status)
	}
	if !reflect.DeepEqual(adv.Status.Result, refAdv.Status.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\nref %+v\ngot %+v",
			refAdv.Status.Result, adv.Status.Result)
	}
	var snap SnapshotResponse
	do(t, ts2, http.MethodPost, "/v1/jobs/job-1/snapshot", nil, &snap)
	if !bytes.Equal(snap.Snapshot, refSnap.Snapshot) {
		t.Error("final snapshot differs from the uninterrupted run's")
	}
}

// TestCreateJobFromSnapshot: the snapshot payload round-trips through
// job creation on a broker with no store at all.
func TestCreateJobFromSnapshot(t *testing.T) {
	ts := newTestServer(t)
	var st JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", persistJobReq, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/advance", AdvanceRequest{Rounds: 10}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	var snap SnapshotResponse
	if code := do(t, ts, http.MethodPost, "/v1/jobs/"+st.ID+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if snap.Persisted {
		t.Error("persisted=true without a store")
	}
	var clone JobStatus
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{Snapshot: snap.Snapshot}, &clone); code != http.StatusCreated {
		t.Fatalf("create from snapshot: %d", code)
	}
	if clone.ID == st.ID {
		t.Error("clone shares the original id")
	}
	if clone.NextRound != 11 || clone.Sellers != 12 || clone.K != 3 || clone.Rounds != 40 {
		t.Errorf("clone status %+v", clone)
	}

	// A corrupt snapshot is a 400, not a 500 or a zombie job.
	bad := json.RawMessage(`{"version":1,"config":{},"state":{"bogus":true}}`)
	if code := do(t, ts, http.MethodPost, "/v1/jobs", JobRequest{Snapshot: bad}, nil); code != http.StatusBadRequest {
		t.Errorf("corrupt snapshot: status %d", code)
	}
}

func TestHealthzWithStore(t *testing.T) {
	_, ts := persistentTestServer(t, t.TempDir())
	var out Healthz
	if code := do(t, ts, http.MethodGet, "/v1/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.StateStore != "ok" {
		t.Errorf("state store %q, want ok", out.StateStore)
	}
}

// TestSaveAllLoadAllWithoutStore: both error cleanly.
func TestSaveAllLoadAllWithoutStore(t *testing.T) {
	srv := New()
	if err := srv.SaveAll(); err == nil {
		t.Error("SaveAll without store succeeded")
	}
	if err := srv.LoadAll(); err == nil {
		t.Error("LoadAll without store succeeded")
	}
}

// A state directory accumulates more than pristine snapshots over its
// life: crashed atomic renames leave `.job-N-*.tmp` files, the WAL
// keeps `.wal` segments alongside, operators drop backups and editors
// drop swap files in it. List must surface only loadable snapshot
// ids — everything else would turn LoadAll into a boot failure.
func TestFileStoreListSkipsForeignAndPartialFiles(t *testing.T) {
	fs := newWALStore(t)
	dir := fs.Dir()
	if err := fs.Save("job-1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("job-2", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := fs.ResetWAL("job-2", 1); err != nil {
		t.Fatal(err) // a live segment the store wrote itself
	}
	// Seed the kinds of dirt a long-lived state dir collects.
	for _, name := range []string{
		".job-3-12345.tmp",     // crashed mid-rename
		".job-3-wal-6789.tmp",  // crashed mid-segment-reset
		".job-3-lease-42.tmp",  // crashed mid-lease-write
		"job-3.json.lease",     // lease of a job whose snapshot is gone
		"job-1.wal",            // WAL segment riding alongside
		"job-2.json.bak",       // operator backup
		"notes.txt",            // stray file
		".DS_Store",            // desktop droppings
		"job with spaces.json", // name that can't round-trip checkID
		"job..2.json",          // ditto
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "archive.json"), 0o755); err != nil {
		t.Fatal(err) // a DIRECTORY named like a snapshot
	}

	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"job-1", "job-2"}) {
		t.Fatalf("list: %v, want [job-1 job-2]", ids)
	}

	// And a broker booting off this dirty dir gets as far as the
	// snapshots: they are junk JSON here, so LoadAll fails on the first
	// one's CONTENT, not on a foreign file.
	srv := New()
	srv.Store = fs
	if err := srv.LoadAll(); err == nil || !strings.Contains(err.Error(), "resume job-1") {
		t.Fatalf("LoadAll: %v, want a resume error for job-1", err)
	}
}
