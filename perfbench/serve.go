package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cmabhs"
	"cmabhs/client"
	"cmabhs/internal/loadgen"
)

// serveSpec is one HTTP serving workload.
type serveSpec struct {
	jobs, m, k    int
	advanceRounds int // rounds per advance in the open loop
	preAgeRounds  int // rounds each job plays during set-up (0: fresh jobs)
	// wal puts the broker on a WALStore and fixes when and how often
	// the jobs compact. The open loop deals advances to the jobs in
	// rotation, and reads likewise (times and ops still come from the
	// seeded schedule), and set-up leaves each job's WAL segment where
	// the job compacts exactly once in the fixed-rate window, at a
	// point of its own in the second half (see segmentOffset). So every
	// run makes the same number of compactions, spread over the second
	// half. Random job picks would let the count follow the Poisson draw
	// of advances (5 to 7 in 20 s) and now and then put two compactions
	// back to back; the per-CPU-second rate and the medians moved with
	// both.
	wal  bool
	rate float64 // offered req/s of the fixed-rate window
	mix  loadgen.Mix
	// costAdvances is how many advances the cost phase plays, which
	// measures the CPU cost of a request after the window.
	costAdvances int
	setupReps    int
	replayReps   int // reference replays; sim_rounds_per_cpu_s is their median rate
}

// horizon is every job's N: far beyond what a run plays, so no job
// finishes mid-run.
const horizon = 100_000_000

// jobState is the driver's record of one job: everything the broker
// acknowledged, in order. Only the job's owning connection writes it.
type jobState struct {
	id    string
	seed  int64
	calls []int // rounds acknowledged per advance call, set-up included
	next  int   // last acknowledged next_round
}

// serveRun is one execution of a serveSpec.
type serveRun struct {
	spec    serveSpec
	seed    int64
	conns   int // driver connections; job i belongs to i % conns
	workDir string
	plan    []loadgen.Arrival // the fixed-rate window's schedule
	tr      *tracer           // nil in untraced runs
	b       *broker
	clients []*client.Client
	jobs    []*jobState
	owner   map[string]int // job id → connection
}

func jobSeed(runSeed int64, i int) int64 { return runSeed*1000 + int64(i) + 1 }

// startBroker starts a broker on dir ("" for in-memory) and one
// single-connection client per driver connection.
func (r *serveRun) startBroker(dir string) error {
	opts := brokerOptions{stateDir: dir}
	if r.tr != nil {
		opts.wrapStore, opts.wrapHandler = r.tr.wrapStore, r.tr.wrapHandler
	}
	b, err := startBroker(opts)
	if err != nil {
		return err
	}
	r.b = b
	r.clients = make([]*client.Client, r.conns)
	for c := range r.clients {
		var wrap func(http.RoundTripper) http.RoundTripper
		if r.tr != nil {
			wrap = r.tr.wrapTransport(c)
		}
		r.clients[c] = newConnClient(b.url, wrap)
	}
	return nil
}

// populate creates the job population one job at a time, so each slot
// gets the same id on every run, and pre-ages each job as it is
// created, on the connection that owns it. It returns the calibrated
// CPU time of the whole (see meter).
func (r *serveRun) populate(ctx context.Context) (time.Duration, error) {
	s := r.spec
	r.jobs = make([]*jobState, s.jobs)
	r.owner = make(map[string]int, s.jobs)
	var m meter
	var total time.Duration
	for i := range r.jobs {
		d, err := m.measure(func() error { return r.addJob(ctx, i) })
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// addJob creates job i and plays set-up's rounds on it.
func (r *serveRun) addJob(ctx context.Context, i int) error {
	s := r.spec
	c := i % r.conns
	js := &jobState{seed: jobSeed(r.seed, i)}
	st, err := r.clients[c].CreateJob(ctx, client.JobRequest{RandomSellers: s.m, K: s.k, Rounds: horizon, Seed: js.seed})
	if err != nil {
		return fmt.Errorf("create job %d: %w", i, err)
	}
	js.id, js.next = st.ID, st.NextRound
	r.jobs[i] = js
	r.owner[js.id] = c
	if r.tr != nil {
		r.tr.setOwner(js.id, c)
	}
	tail := 0
	if s.wal {
		tail = min(r.segmentOffset(i), s.preAgeRounds)
	}
	for _, n := range []int{s.preAgeRounds - tail, tail} {
		if n <= 0 {
			continue
		}
		resp, err := r.clients[c].Advance(ctx, js.id, n)
		if err != nil {
			return fmt.Errorf("pre-age %s: %w", js.id, err)
		}
		js.calls = append(js.calls, len(resp.Played))
		js.next = resp.Status.NextRound
	}
	return nil
}

// setup builds the population setupReps times, each on a fresh broker
// (and state dir) and on one processor (see onOneProc), keeps the last
// one, and returns the median calibrated CPU time (s) of a build.
func (r *serveRun) setup(ctx context.Context) (float64, error) {
	var times, walls []float64
	for rep := 0; rep < r.spec.setupReps; rep++ {
		if r.b != nil {
			if err := r.b.stop(); err != nil {
				return 0, err
			}
			r.b = nil
		}
		dir := ""
		if r.spec.wal {
			dir = filepath.Join(r.workDir, fmt.Sprintf("state-%d", rep))
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		if err := r.startBroker(dir); err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		err := onOneProc(func() error {
			d, err := r.populate(ctx)
			times = append(times, d.Seconds())
			return err
		})
		if err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if rep > 0 && dir != "" {
			_ = os.RemoveAll(filepath.Join(r.workDir, fmt.Sprintf("state-%d", rep-1)))
		}
	}
	fmt.Printf("set-up: %d jobs (M=%d K=%d) created and aged %d rounds each; %d reps, median %.4f s calibrated CPU (%.4f s wall)\n",
		r.spec.jobs, r.spec.m, r.spec.k, r.spec.preAgeRounds, len(times), median(times), median(walls))
	return median(times), nil
}

// issue sends one scheduled request on its connection and folds
// acknowledged advances into the job's record.
func (r *serveRun) issue(ctx context.Context, c int, a loadgen.Arrival) (traced bool, err error) {
	js := r.jobs[a.Job]
	cl := r.clients[c]
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	var span func(err error)
	if r.tr != nil {
		span = r.tr.beginRequest(c, a.Op)
	}
	switch a.Op {
	case loadgen.OpAdvance:
		var resp *client.AdvanceResponse
		resp, err = cl.Advance(ctx, js.id, r.spec.advanceRounds)
		if err == nil {
			js.calls = append(js.calls, len(resp.Played))
			js.next = resp.Status.NextRound
			if r.tr != nil {
				r.tr.noteCore(c, resp.Status.Metrics.LastAdvanceSeconds)
			}
		}
	case loadgen.OpStatus:
		_, err = cl.Job(ctx, js.id)
	case loadgen.OpEstimates:
		_, err = cl.Estimates(ctx, js.id)
	default:
		err = fmt.Errorf("op %s is not in the benchmark's mix", a.Op)
	}
	if span != nil {
		span(err)
	}
	return span != nil, err
}

// segmentOffset is how many rounds job i's WAL segment holds when the
// fixed-rate window starts: enough that the job compacts on the advance
// that lands (jobs+i+1/2)/(2 jobs) of the way through its advances in
// the window, and no more than once as long as it plays fewer than a
// segment's worth of advances after that.
func (r *serveRun) segmentOffset(i int) int {
	n := 0
	for _, a := range r.plan {
		if a.Op == loadgen.OpAdvance && a.Job == i {
			n++
		}
	}
	f := (float64(r.spec.jobs+i) + 0.5) / float64(2*r.spec.jobs)
	k := min(max(int(math.Round(f*float64(n))), 1), compactEvery/r.spec.advanceRounds)
	return compactEvery - k*r.spec.advanceRounds
}

// schedule builds the arrivals of one open-loop phase from seed. On a
// WAL workload the jobs are dealt in rotation (see serveSpec.wal).
func (r *serveRun) schedule(seed int64, rate float64, d time.Duration) []loadgen.Arrival {
	arr := loadgen.BuildSchedule(seed, rate, d, r.spec.mix, r.spec.jobs)
	if r.spec.wal {
		var dealt [2]int // advances, reads
		for i := range arr {
			k := 0
			if arr[i].Op != loadgen.OpAdvance {
				k = 1
			}
			arr[i].Job = dealt[k] % r.spec.jobs
			dealt[k]++
		}
	}
	return arr
}

// costResult is what the cost phase measured: the calibrated CPU time
// (ms) of each successful request, by kind, and the request counts.
type costResult struct {
	advances, reads         []float64
	attempted, shed, failed int
	total                   time.Duration
}

func (c costResult) perCPUSecond() float64 {
	return float64(len(c.advances)+len(c.reads)) / c.total.Seconds()
}

// costSlice plays arr, one part of the cost phase, one request at a
// time, back to back, on one processor (see onOneProc), and adds each
// request's calibrated CPU time to res: client, loopback HTTP and
// broker, and the collector's work meanwhile.
func (r *serveRun) costSlice(ctx context.Context, arr []loadgen.Arrival, m *meter, res *costResult) error {
	return onOneProc(func() error {
		for _, a := range arr {
			var err error
			d, _ := m.measure(func() error {
				_, err = r.issue(ctx, a.Job%r.conns, a)
				return nil
			})
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.attempted++
			switch classify(err) {
			case outcomeShed:
				res.shed++
				continue
			case outcomeFailed:
				res.failed++
				continue
			}
			res.total += d
			if a.Op == loadgen.OpAdvance {
				res.advances = append(res.advances, ms(d))
			} else {
				res.reads = append(res.reads, ms(d))
			}
		}
		return nil
	})
}

// costPlan is the cost phase's requests: the seeded schedule of the
// window's rate and mix (times are ignored), keeping the first
// costAdvances advances and, of every other op, its exact share of the
// mix relative to the advances. Exact counts keep the phase's mix, and
// with it requests_per_cpu_s and the read median, off the seed's draw.
func (r *serveRun) costPlan(seed int64) []loadgen.Arrival {
	want := make(map[loadgen.Op]int, len(r.spec.mix))
	total := 0
	for op, w := range r.spec.mix {
		want[op] = int(math.Round(float64(r.spec.costAdvances) * w / r.spec.mix[loadgen.OpAdvance]))
		total += want[op]
	}
	for d := time.Second; ; d *= 2 {
		var out []loadgen.Arrival
		got := make(map[loadgen.Op]int, len(want))
		for _, a := range r.schedule(seed, r.spec.rate, d) {
			if got[a.Op] < want[a.Op] {
				got[a.Op]++
				out = append(out, a)
			}
		}
		if len(out) == total {
			return out
		}
	}
}

// replayStats is what the in-process reference replay measured.
type replayStats struct {
	rounds    int
	busy      time.Duration // calibrated CPU time of the Session.AdvanceContext calls
	allocs    uint64        // heap allocations inside Session.AdvanceContext
	saveMS    float64       // mean Session.Save time per job
	snapBytes float64       // mean snapshot size per job
	maxAge    int           // most rounds any job reached
}

func (s replayStats) rate() float64 { return float64(s.rounds) / s.busy.Seconds() }

// replayMeasureRounds is how many rounds the reference replay times
// at once, at the least.
const replayMeasureRounds = 100

// referenceReplay plays each job's acknowledged call sequence on an
// in-process Session with the same config and, with snapshots set,
// returns the SHA-256 of the snapshot each reaches. One session lives
// at a time, so memory stays at one job's worth. It runs on one
// processor (see onOneProc).
func (r *serveRun) referenceReplay(ctx context.Context, snapshots bool) (sums [][sha256.Size]byte, st replayStats, err error) {
	err = onOneProc(func() error {
		sums, st, err = r.replayJobs(ctx, snapshots)
		return err
	})
	return sums, st, err
}

func (r *serveRun) replayJobs(ctx context.Context, snapshots bool) ([][sha256.Size]byte, replayStats, error) {
	var st replayStats
	var mt meter
	s := r.spec
	sums := make([][sha256.Size]byte, len(r.jobs))
	var m0, m1 runtime.MemStats
	for i, js := range r.jobs {
		sess, err := cmabhs.NewSession(cmabhs.RandomConfig(s.m, s.k, horizon, js.seed))
		if err != nil {
			return nil, st, err
		}
		runtime.ReadMemStats(&m0)
		for calls := js.calls; len(calls) > 0; {
			// Measure a few calls at a time, at least
			// replayMeasureRounds rounds, so calibrations keep up
			// with the host without timing every 1-round call.
			n, rounds := 0, 0
			for n < len(calls) && rounds < replayMeasureRounds {
				rounds += calls[n]
				n++
			}
			chunk := calls[:n]
			calls = calls[n:]
			d, err := mt.measure(func() error {
				for _, c := range chunk {
					adv, err := sess.AdvanceContext(ctx, c)
					if err != nil {
						return err
					}
					st.rounds += len(adv.Played)
				}
				return nil
			})
			if err != nil {
				return nil, st, err
			}
			st.busy += d
		}
		runtime.ReadMemStats(&m1)
		st.allocs += m1.Mallocs - m0.Mallocs
		st.maxAge = max(st.maxAge, sess.NextRound()-1)
		if !snapshots {
			continue
		}
		t0 := time.Now()
		snap, err := sess.Save()
		st.saveMS += ms(time.Since(t0)) / float64(len(r.jobs))
		if err != nil {
			return nil, st, err
		}
		st.snapBytes += float64(len(snap)) / float64(len(r.jobs))
		sums[i] = sha256.Sum256(snap)
	}
	return sums, st, nil
}

// verify checks every job against its in-process reference: the
// broker's snapshot of the job must equal, byte for byte, the
// reference's, and the broker must report the last acknowledged
// next_round. The references replay while no broker runs, on a small
// heap. An in-memory broker is read first and then stopped. A WAL
// broker is dropped without SaveAll and, after the replay, a fresh one
// is loaded from the same state dir: every job must resume at its last
// acknowledged round with the reference's bytes. The broker is gone
// when verify returns.
func (r *serveRun) verify(ctx context.Context, dir string) (replayStats, error) {
	var got [][sha256.Size]byte
	if !r.spec.wal {
		var err error
		if got, err = r.brokerSnapshots(ctx); err != nil {
			return replayStats{}, err
		}
	}
	if err := r.b.stop(); err != nil {
		return replayStats{}, fmt.Errorf("stop broker: %w", err)
	}
	r.b = nil
	runtime.GC()
	t0 := time.Now()
	want, st, err := r.referenceReplay(ctx, true)
	if err != nil {
		return st, fmt.Errorf("reference replay: %w", err)
	}
	fmt.Printf("  reference replay with snapshots: %.3f s\n", time.Since(t0).Seconds())
	if r.spec.wal {
		t0 = time.Now()
		if err := r.startBroker(dir); err != nil {
			return st, fmt.Errorf("restart broker: %w", err)
		}
		fmt.Printf("  broker restart with LoadAll: %.3f s\n", time.Since(t0).Seconds())
		got, err = r.brokerSnapshots(ctx)
		if serr := r.b.stop(); err == nil {
			err = serr
		}
		r.b = nil
		if err != nil {
			return st, err
		}
	}
	for i, js := range r.jobs {
		if got[i] != want[i] {
			return st, fmt.Errorf("%s: snapshot differs from the in-process reference", js.id)
		}
	}
	return st, nil
}

// brokerSnapshots checks each job's next_round against the last
// acknowledged one and returns the SHA-256 of its snapshot as the
// broker holds it. On a WAL broker that is the stored snapshot, which
// recovery rewrote from the resumed job's state.
func (r *serveRun) brokerSnapshots(ctx context.Context) ([][sha256.Size]byte, error) {
	sums := make([][sha256.Size]byte, len(r.jobs))
	for i, js := range r.jobs {
		cl := r.clients[r.owner[js.id]]
		status, err := cl.Job(ctx, js.id)
		if err != nil {
			return nil, fmt.Errorf("%s: status: %w", js.id, err)
		}
		if status.NextRound != js.next {
			return nil, fmt.Errorf("%s: next_round %d, last acknowledged %d", js.id, status.NextRound, js.next)
		}
		var snap []byte
		if r.spec.wal {
			snap, err = r.b.wal.Load(js.id)
		} else {
			var resp *client.SnapshotResponse
			if resp, err = cl.Snapshot(ctx, js.id); err == nil {
				snap = resp.Snapshot
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: snapshot: %w", js.id, err)
		}
		sums[i] = sha256.Sum256(snap)
	}
	return sums, nil
}

// liveHeapMB is the live heap after a full collection. The second
// collection frees what sync.Pool victim caches (JSON encode buffers
// sized by the last snapshot, for one) kept alive through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
