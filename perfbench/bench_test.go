package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmabhs/client"
	"cmabhs/internal/loadgen"
)

// testSpec is a small WAL workload: big enough that the open-loop
// phase appends to the WAL and compacts at least once (4096 rounds),
// small enough to run in a second.
var testSpec = serveSpec{
	jobs: 4, m: 12, k: 3,
	advanceRounds: 50,
	preAgeRounds:  4000,
	wal:           true,
	rate:          400,
	mix:           loadgen.Mix{loadgen.OpAdvance: 50, loadgen.OpStatus: 25, loadgen.OpEstimates: 25},
	setupReps:     1,
}

// runScenario sets testSpec up on a fresh state dir, issues its
// one-second schedule for seed one request at a time (no clock involved), drops
// the broker without SaveAll, and returns the state dir's files.
func runScenario(t *testing.T, seed int64, tr *tracer) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	r := &serveRun{spec: testSpec, seed: seed, conns: 2, workDir: t.TempDir(), tr: tr}
	r.plan = r.schedule(seed, testSpec.rate, time.Second)
	if _, err := r.setup(ctx); err != nil {
		t.Fatal(err)
	}
	for _, a := range r.plan {
		if _, err := r.issue(ctx, a.Job%r.conns, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.b.stop(); err != nil {
		t.Fatal(err)
	}
	r.b = nil
	dir := filepath.Join(r.workDir, "state-0")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func sizes(files map[string][]byte) map[string]int {
	out := map[string]int{}
	for name, data := range files {
		out[name] = len(data)
	}
	return out
}

func TestSameSeedSameScheduleAndStoreBytes(t *testing.T) {
	plan := func(seed int64) []loadgen.Arrival {
		return loadgen.BuildSchedule(seed, 300, 5*time.Second, testSpec.mix, 32)
	}
	if !reflect.DeepEqual(plan(7), plan(7)) {
		t.Fatal("same seed built different schedules")
	}
	if reflect.DeepEqual(plan(7), plan(8)) {
		t.Fatal("different seeds built the same schedule")
	}
	a, b := runScenario(t, 7, nil), runScenario(t, 7, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different state dirs (byte counts):\n%v\n%v", sizes(a), sizes(b))
	}
	if len(a) == 0 {
		t.Fatal("scenario left an empty state dir")
	}
}

func TestTimingStoreIsTransparent(t *testing.T) {
	tr := newTracer(2)
	plain, timed := runScenario(t, 3, nil), runScenario(t, 3, tr)
	if !reflect.DeepEqual(plain, timed) {
		t.Fatalf("state dirs differ with the timing decorator: %v vs %v", sizes(plain), sizes(timed))
	}
	// The decorator must actually have been in the path.
	if n, _, _, _ := tr.storeStats(spanAppend); n == 0 {
		t.Fatal("timing decorator recorded no appends")
	}
	if n, _, _, _ := tr.storeStats(spanSave); n == 0 {
		t.Fatal("timing decorator recorded no compaction saves")
	}
}

func TestEachJobCompactsOnceInTheWindow(t *testing.T) {
	spec := agedSpec
	for seed := int64(1); seed <= 20; seed++ {
		r := &serveRun{spec: spec}
		r.plan = r.schedule(seed, spec.rate, 20*time.Second)
		seg := make([]int, spec.jobs)
		for i := range seg {
			seg[i] = r.segmentOffset(i)
		}
		var at []int // arrival index of each compaction
		for n, a := range r.plan {
			if a.Op != loadgen.OpAdvance {
				continue
			}
			if seg[a.Job] += spec.advanceRounds; seg[a.Job] >= compactEvery {
				seg[a.Job] = 0
				at = append(at, n)
			}
		}
		if len(at) != spec.jobs {
			t.Fatalf("seed %d: %d compactions in the window, want one per job", seed, len(at))
		}
		if at[0] < 2*len(r.plan)/5 {
			t.Errorf("seed %d: first compaction at arrival %d of %d, want it past the window's first half or near", seed, at[0], len(r.plan))
		}
	}
}

// TestEachJobCompactsOnceInTheCostPhase plays the window and then the
// cost phase of the aged workload's shape: whatever the seed, each job
// compacts exactly once in the cost phase.
func TestEachJobCompactsOnceInTheCostPhase(t *testing.T) {
	spec := agedSpec
	for seed := int64(1); seed <= 20; seed++ {
		r := &serveRun{spec: spec}
		r.plan = r.schedule(seed, spec.rate, 20*time.Second)
		seg := make([]int, spec.jobs)
		for i := range seg {
			seg[i] = r.segmentOffset(i)
		}
		play := func(arr []loadgen.Arrival) []int {
			compactions := make([]int, spec.jobs)
			for _, a := range arr {
				if a.Op != loadgen.OpAdvance {
					continue
				}
				if seg[a.Job] += spec.advanceRounds; seg[a.Job] >= compactEvery {
					seg[a.Job] = 0
					compactions[a.Job]++
				}
			}
			return compactions
		}
		play(r.plan)
		for job, n := range play(r.costPlan(seed + 1)) {
			if n != 1 {
				t.Fatalf("seed %d: job %d compacts %d times in the cost phase, want once", seed, job, n)
			}
		}
	}
}

// TestMeterScalesToCalRef: the calibration unit itself measures as
// calRef, whatever the processor's speed.
func TestMeterScalesToCalRef(t *testing.T) {
	var m meter
	var ds []float64
	for i := 0; i < 9; i++ {
		d, err := m.measure(func() error { calUnit(); return nil })
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, float64(d))
	}
	if got := median(ds) / float64(calRef); got < 0.7 || got > 1.3 {
		t.Fatalf("calUnit measures %.2f calRef, want about 1", got)
	}
}

func TestOpenLoopKeepsJobsOnTheirConnection(t *testing.T) {
	arr := loadgen.BuildSchedule(1, 2000, 300*time.Millisecond, testSpec.mix, 9)
	var mu sync.Mutex
	sent := map[int][]time.Duration{} // conn → due times in send order
	start := time.Now()
	res := runOpenLoop(context.Background(), arr, 2, func(_ context.Context, conn int, a loadgen.Arrival) (bool, error) {
		if a.Job%2 != conn {
			t.Errorf("job %d sent on connection %d", a.Job, conn)
		}
		if early := a.At - time.Since(start); early > time.Millisecond {
			t.Errorf("arrival due at %v sent %v early", a.At, early)
		}
		mu.Lock()
		sent[conn] = append(sent[conn], a.At)
		mu.Unlock()
		return false, nil
	})
	if len(res.samples) != len(arr) {
		t.Fatalf("%d samples for %d arrivals", len(res.samples), len(arr))
	}
	for c, dues := range sent {
		if !sort.SliceIsSorted(dues, func(i, j int) bool { return dues[i] < dues[j] }) {
			t.Errorf("connection %d sent out of due order", c)
		}
	}
}

func TestTailIsTheWindowsOwnPercentile(t *testing.T) {
	// A burst of slow samples confined to one third of the window is in
	// the tail.
	lats := make([]float64, 3000)
	for i := range lats {
		lats[i] = 1
	}
	for i := 0; i < 100; i++ {
		lats[1000+i] = 50
	}
	v, q := tail(lats)
	if q != 0.99 || v != 50 {
		t.Fatalf("tail = p%v %v, want p99 50", 100*q, v)
	}
	// 200 samples: the highest quantile leaving ten beyond is p95.
	if _, q := tail(lats[:200]); q < 0.9499 || q > 0.9501 {
		t.Fatalf("200 samples: q=%v, want 0.95", q)
	}
}

func TestFailedRequestsFailTheRun(t *testing.T) {
	arr := loadgen.BuildSchedule(1, 2000, 100*time.Millisecond, testSpec.mix, 4)
	if len(arr) < 8 {
		t.Fatalf("schedule too short: %d arrivals", len(arr))
	}
	errs := []error{
		&client.APIError{Status: http.StatusTooManyRequests},
		&client.APIError{Status: http.StatusInternalServerError},
		&client.APIError{Status: http.StatusNotFound},
		errors.New("connection reset"),
	}
	play := func(failing bool) *report {
		var n atomic.Int32
		res := runOpenLoop(context.Background(), arr, 2, func(context.Context, int, loadgen.Arrival) (bool, error) {
			i := int(n.Add(1)) - 1
			if failing && i < len(errs) {
				return false, errs[i]
			}
			return false, nil
		})
		rep := newReport()
		account(rep, len(res.samples), res.count(outcomeShed), res.count(outcomeFailed))
		return rep
	}
	if rep := play(false); !rep.Correct || rep.Failed != 0 || rep.Attempted != len(arr) {
		t.Fatalf("healthy run: correct %v, failed %d, attempted %d of %d", rep.Correct, rep.Failed, rep.Attempted, len(arr))
	}
	rep := play(true)
	if rep.Correct {
		t.Fatal("a run with failed and shed requests passed")
	}
	if rep.Failed != len(errs) || rep.Attempted != len(arr) {
		t.Fatalf("failed %d of %d attempted, want %d of %d", rep.Failed, rep.Attempted, len(errs), len(arr))
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 500, 999, 1000, 5000} {
		q := tailQuantile(n)
		if beyond := float64(n) * (1 - q); beyond < 10-1e-9 && q > 0.5 {
			t.Errorf("n=%d: q=%v leaves %v samples beyond", n, q, beyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%v, want 0.99", n, q)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the program reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
