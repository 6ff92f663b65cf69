package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cmabhs/internal/experiment"
	"cmabhs/internal/loadgen"
)

// loopConns is how many connections the driver uses. One connection
// sends every request, so nothing of the driver runs beside a request
// and the cost phase can bill the process's CPU time to it.
const loopConns = 1

// The serving workloads' shapes. BENCHMARK.json records why each
// exists; the comments here record why each number is what it is.
var (
	// Per-request wire, handler, and encode cost: 1-round advances on
	// small fresh jobs, so the mechanism is a few percent of a request
	// and no store is involved. 600 req/s is the cdt-loadgen anchor
	// rate. Set-up (32 creates, a few ms of CPU) and the reference
	// replay (some thousands of 1-round calls) are short, so both are
	// repeated and their medians reported.
	freshSpec = serveSpec{
		jobs: 32, m: 20, k: 5,
		advanceRounds: 1,
		rate:          600,
		mix:           loadgen.Mix{loadgen.OpAdvance: 50, loadgen.OpStatus: 25, loadgen.OpEstimates: 25},
		costAdvances:  2000,
		setupReps:     25,
		replayReps:    10,
	}
	// WAL appends, compaction snapshots taken under the job lock, and
	// ledger-journal growth: four jobs pre-aged to 20480 rounds take
	// 100-round advances while reads queue behind them. Each job
	// compacts once per window (see serveSpec.wal), so most requests
	// miss the half-second stalls and the wall medians measure the
	// requests, not the queue.
	agedSpec = serveSpec{
		jobs: 4, m: 100, k: 10,
		advanceRounds: 100,
		preAgeRounds:  20480,
		wal:           true,
		rate:          30,
		mix:           loadgen.Mix{loadgen.OpAdvance: 40, loadgen.OpStatus: 30, loadgen.OpEstimates: 30},
		// 41 advances of 100 rounds per job: 4100 rounds, just over one
		// WAL segment (compactEvery, 4096), so every job compacts
		// exactly once in the cost phase wherever its segment stood.
		costAdvances: 41 * 4,
		setupReps:    3,
		replayReps:   2,
	}
)

// The workloads.
var workloads = map[string]func(ctx context.Context, env runEnv, rep *report) error{
	"serve_fresh_mem": serveWorkload(freshSpec),
	"serve_aged_wal":  serveWorkload(agedSpec),
	"paper_replay":    replayWorkload,
}

// figureRunner regenerates fig7-8 at scale 100 with one worker per
// CPU (on one processor, see onOneProc), checks every regeneration
// against the shipped baseline, and keeps the calibrated CPU times and
// the wall times (s).
type figureRunner struct {
	s        experiment.Settings
	baseline []experiment.Figure
	rep      *report
	m        meter
	times    []float64 // calibrated CPU
	walls    []float64
}

func newFigureRunner(env runEnv, rep *report) (*figureRunner, error) {
	f, err := os.Open(filepath.Join(env.root, "baselines", "fig7-8.scale100.json"))
	if err != nil {
		return nil, err
	}
	baseline, err := experiment.LoadFigures(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	s := experiment.Defaults()
	s.Scale = 100
	s.Workers = env.cpus
	return &figureRunner{s: s, baseline: baseline, rep: rep}, nil
}

func (fr *figureRunner) run(ctx context.Context) error {
	var figs []experiment.Figure
	var d time.Duration
	t0 := time.Now()
	err := onOneProc(func() (err error) {
		d, err = fr.m.measure(func() (err error) {
			figs, err = experiment.Fig7And8(ctx, fr.s)
			return err
		})
		return err
	})
	fr.times = append(fr.times, d.Seconds())
	fr.walls = append(fr.walls, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("fig7-8: %w", err)
	}
	if diffs := experiment.CompareFigures(fr.baseline, figs, experiment.CompareOptions{}); len(diffs) > 0 {
		fr.rep.fail("fig7-8 scale 100 differs from baselines/fig7-8.scale100.json: %v", diffs)
	}
	return nil
}

// scrapeCounters reads the named counters from the broker's /metrics.
func scrapeCounters(url string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// serveWorkload runs one HTTP serving workload: set-up, the fixed-rate
// open loop, the cost phase (untraced runs), verification against
// in-process references, and the figure regeneration every workload
// reports.
func serveWorkload(spec serveSpec) func(ctx context.Context, env runEnv, rep *report) error {
	return func(ctx context.Context, env runEnv, rep *report) error {
		r := &serveRun{spec: spec, seed: env.seed, conns: loopConns, workDir: env.workDir}
		r.plan = r.schedule(env.seed, spec.rate, env.seconds)
		if env.traced {
			r.tr = newTracer(r.conns)
		}
		defer func() {
			if r.b != nil {
				_ = r.b.stop()
			}
		}()
		setupS, err := r.setup(ctx)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if !env.traced {
			rep.set("setup_s", setupS, "s")
		}
		dir := ""
		if spec.wal {
			dir = filepath.Join(env.workDir, fmt.Sprintf("state-%d", spec.setupReps-1))
		}

		c0, err := scrapeCounters(r.b.url, "cdt_wal_compactions_total")
		if err != nil {
			return fmt.Errorf("scrape /metrics: %w", err)
		}
		runtime.GC()
		res := runOpenLoop(ctx, r.plan, r.conns, r.issue)
		adv, reads := res.latencies(isAdvance), res.latencies(isRead)
		fmt.Printf("fixed-rate window: %.0f req/s offered for %s on %d connection, %d requests (%d advances, %d reads), elapsed %s\n",
			spec.rate, env.seconds, r.conns, len(res.samples), len(adv), len(reads), res.elapsed.Round(time.Millisecond))
		advTail, advQ := tail(adv)
		readTail, readQ := tail(reads)
		fmt.Printf("  wall: advance p50 %.3f ms, p%.4g %.3f ms (n=%d); read p50 %.3f ms, p%.4g %.3f ms (n=%d)\n",
			median(adv), 100*advQ, advTail, len(adv), median(reads), 100*readQ, readTail, len(reads))
		fmt.Printf("  driver: lag p50 %.3f ms, max %.3f ms, backlog max %d\n", res.lagQuantile(0.5), ms(res.lagMax()), res.backlogMax)
		fmt.Printf("  utilization-law capacity of the connection: %.1f req/s\n", res.capacity())
		if env.traced {
			// Every other request was traced: report the untraced half
			// as the end-to-end view and the difference as overhead.
			untr := res.latencies(func(s sample) bool { return isAdvance(s) && !s.traced })
			trc := res.latencies(func(s sample) bool { return isAdvance(s) && s.traced })
			rep.set("trace.overhead_advance_p50_ms", median(trc)-median(untr), "ms")
			fmt.Printf("  traced advances p50 %.3f ms vs untraced %.3f ms\n", median(trc), median(untr))
			rep.set("wall.advance_p50_ms", median(untr), "ms")
			rep.set("wall.read_p50_ms", median(res.latencies(func(s sample) bool { return isRead(s) && !s.traced })), "ms")
			rep.set("wall.capacity_rps", res.capacity(), "1/s")
			rep.set("tail.advance_p99_ms", advTail, "ms")
			rep.set("tail.read_p99_ms", readTail, "ms")
		}
		account(rep, len(res.samples), res.count(outcomeShed), res.count(outcomeFailed))

		heap := liveHeapMB()
		counters, err := scrapeCounters(r.b.url, "cdt_http_shed_total", "cdt_store_retry_failures_total", "cdt_wal_compactions_total")
		if err != nil {
			return fmt.Errorf("scrape /metrics: %w", err)
		}
		if spec.wal {
			fmt.Printf("WAL compactions in the fixed-rate window: %.0f\n", counters["cdt_wal_compactions_total"]-c0["cdt_wal_compactions_total"])
		}
		var reqs map[uint64]*reqSpans
		if env.traced {
			reqs = r.tr.byRequest()
		}
		fr, err := newFigureRunner(env, rep)
		if err != nil {
			return err
		}
		if !env.traced {
			// The cost phase in costSlices parts, each followed by a
			// figure regeneration, so both are sampled over a stretch
			// of several seconds: a burst of contention on the host
			// that the calibration does not follow then reaches a few
			// parts, not the whole of either.
			plan := r.costPlan(env.seed + 1)
			var cr costResult
			var m meter
			for i := 0; i < costSlices; i++ {
				runtime.GC()
				if err := r.costSlice(ctx, plan[i*len(plan)/costSlices:(i+1)*len(plan)/costSlices], &m, &cr); err != nil {
					return fmt.Errorf("cost phase: %w", err)
				}
				runtime.GC()
				if err := fr.run(ctx); err != nil {
					return err
				}
			}
			account(rep, cr.attempted, cr.shed, cr.failed)
			advCost, advCostQ := tail(cr.advances)
			fmt.Printf("cost phase: %d requests back to back in %d parts (%d advances, %d reads), calibrated CPU: advance p50 %.3f ms, p%.4g %.3f ms; read p50 %.3f ms; %.1f requests per CPU-second\n",
				cr.attempted, costSlices, len(cr.advances), len(cr.reads), median(cr.advances), 100*advCostQ, advCost, median(cr.reads), cr.perCPUSecond())
			rep.set("advance_cpu_ms", median(cr.advances), "ms")
			rep.set("read_cpu_ms", median(cr.reads), "ms")
			rep.set("requests_per_cpu_s", cr.perCPUSecond(), "1/s")
		}

		t0 := time.Now()
		vr, err := r.verify(ctx, dir)
		fmt.Printf("verification took %.3f s (%d reference rounds in %.3f s calibrated CPU)\n", time.Since(t0).Seconds(), vr.rounds, vr.busy.Seconds())
		if err != nil {
			rep.fail("%v", err)
		} else {
			fmt.Printf("verified %d jobs: snapshots byte-identical to in-process references", len(r.jobs))
			if spec.wal {
				fmt.Printf(" after a drop without SaveAll and LoadAll on the same dir")
			}
			fmt.Println()
		}
		rates := []float64{vr.rate()}
		for i := 1; i < spec.replayReps; i++ {
			runtime.GC()
			_, again, err := r.referenceReplay(ctx, false)
			if err != nil {
				return fmt.Errorf("reference replay: %w", err)
			}
			rates = append(rates, again.rate())
		}
		if env.traced {
			// Only the check: the traced run reports no figure time.
			if err := fr.run(ctx); err != nil {
				return err
			}
		}
		fmt.Printf("reference replays: %d, median %.0f rounds per calibrated CPU-second; fig7-8 regenerations: %d, median %.3f s calibrated CPU (%.3f s wall)\n",
			len(rates), median(rates), len(fr.times), median(fr.times), median(fr.walls))
		if !env.traced {
			rep.set("heap_mb", heap, "MB")
			rep.set("sim_rounds_per_cpu_s", median(rates), "1/s")
			rep.set("figure_cpu_s", median(fr.times), "s")
			return nil
		}

		// Per-layer metrics.
		rep.set("driver.lag_max_ms", ms(res.lagMax()), "ms")
		rep.set("driver.backlog_max", float64(res.backlogMax), "count")
		rep.set("server.shed_count", counters["cdt_http_shed_total"], "count")
		rep.set("store.retries", counters["cdt_store_retry_failures_total"], "count")
		r.tr.perLayer(rep, reqs, res)
		rep.set("core.round_us", us(vr.busy)/float64(vr.rounds), "us")
		rep.set("core.allocs_per_round", float64(vr.allocs)/float64(vr.rounds), "count")
		rep.set("session.save_ms", vr.saveMS, "ms")
		rep.set("session.snapshot_bytes", vr.snapBytes, "bytes")
		setMicro(rep, runMicro(env.seed, spec.m, spec.k, vr.maxAge))
		return r.tr.writeSpans(env.spanFile())
	}
}

// account adds a phase's requests to the run's counts. Every request
// must succeed: a shed, an error status or a transport error fails the
// run, so an endpoint that answers fast with an error can neither pass
// nor look cheaper (latencies and CPU times keep only successes).
func account(rep *report, attempted, shed, failed int) {
	rep.Attempted += attempted
	rep.Failed += shed + failed
	if shed+failed > 0 {
		rep.fail("%d of %d requests failed (%d shed with 429, %d other errors)", shed+failed, attempted, shed, failed)
	}
}

// costSlices is how many parts the cost phase is played in; an
// untraced serve run regenerates the figure after each.
const costSlices = 8

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
