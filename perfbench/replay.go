package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cmabhs"
	"cmabhs/internal/loadgen"
)

// paper_replay's shape. The long session runs the paper's default
// market (M=300, K=10): set-up pre-ages it, then the measured phase
// advances it in 25-round calls, each followed by a batch of reads.
// Its total age stays near 50k rounds so the ledger journal keeps the
// heap bounded. The session's calls are spread over the whole run in
// blocks between fig7-8 regenerations, so both see the same machine
// conditions and neither rests on one short stretch of time.
const (
	replayM, replayK = 300, 10
	replayPreAge     = 10_000
	replayRounds     = 40_000 // played in the measured phase
	replayChunk      = 25
	replayBlocks     = 16
	replayReads      = 8 // reads timed together after each call
	replaySetupReps  = 3
)

// newReplaySession builds the long session and pre-ages it, and
// returns the calibrated CPU time that took.
func newReplaySession(ctx context.Context, seed int64) (sess *cmabhs.Session, cpu time.Duration, err error) {
	var m meter
	cpu, err = m.measure(func() (err error) {
		sess, err = cmabhs.NewSession(cmabhs.RandomConfig(replayM, replayK, horizon, jobSeed(seed, 0)))
		return err
	})
	for played := 0; err == nil && played < replayPreAge; played += 1000 {
		var d time.Duration
		d, err = m.measure(func() error {
			_, err := sess.AdvanceContext(ctx, 1000)
			return err
		})
		cpu += d
	}
	return sess, cpu, err
}

// sessionPhase accumulates the long session's measurements: the
// calibrated CPU times (ms) of every call and read batch, and their
// wall times.
type sessionPhase struct {
	sess                 *cmabhs.Session
	tr                   *tracer // nil in untraced runs
	m                    meter
	advCPU, readCPU      []float64
	advWall, readWall    []float64
	advTraced, advPlain  []float64     // wall
	busy                 time.Duration // calibrated CPU of the advance calls
	readBusy             time.Duration // calibrated CPU of the reads
	rounds, calls, reads int
}

// block plays one block of the measured rounds on one processor (see
// onOneProc). Every other call is traced in a traced run (its client
// span is the call itself), so the difference between the halves is
// the tracing overhead.
func (p *sessionPhase) block(ctx context.Context, rounds int) error {
	return onOneProc(func() error { return p.play(ctx, rounds) })
}

func (p *sessionPhase) play(ctx context.Context, rounds int) error {
	for played := 0; played < rounds; {
		var end func(error)
		if p.tr != nil {
			end = p.tr.beginRequest(0, loadgen.OpAdvance)
		}
		var adv cmabhs.Advance
		t0 := time.Now()
		cpu, err := p.m.measure(func() (err error) {
			adv, err = p.sess.AdvanceContext(ctx, replayChunk)
			return err
		})
		d := time.Since(t0)
		if end != nil {
			end(err)
		}
		if err != nil {
			return err
		}
		played += len(adv.Played)
		p.busy += cpu
		p.rounds += len(adv.Played)
		p.calls++
		p.advCPU = append(p.advCPU, ms(cpu))
		p.advWall = append(p.advWall, ms(d))
		if end != nil {
			p.advTraced = append(p.advTraced, ms(d))
		} else {
			p.advPlain = append(p.advPlain, ms(d))
		}
		// The in-process status and estimates reads, half each.
		t0 = time.Now()
		cpu, _ = p.m.measure(func() error {
			for i := 0; i < replayReads; i += 2 {
				sinkFloat = p.sess.Result().RealizedRevenue
				sinkFloat = p.sess.Estimates()[0]
			}
			return nil
		})
		d = time.Since(t0)
		p.readBusy += cpu
		p.readCPU = append(p.readCPU, ms(cpu)/replayReads)
		p.readWall = append(p.readWall, ms(d)/replayReads)
		p.reads += replayReads
	}
	return nil
}

// replayWorkload runs the mechanism and the experiment harness in
// process: no HTTP, no store, no client.
func replayWorkload(ctx context.Context, env runEnv, rep *report) error {
	var sess *cmabhs.Session
	var setups, walls []float64
	for i := 0; i < replaySetupReps; i++ {
		sess = nil
		runtime.GC()
		t0 := time.Now()
		err := onOneProc(func() (err error) {
			var cpu time.Duration
			sess, cpu, err = newReplaySession(ctx, env.seed)
			setups = append(setups, cpu.Seconds())
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	fmt.Printf("set-up: session M=%d K=%d built and aged %d rounds; %d reps, median %.4f s calibrated CPU (%.4f s wall)\n",
		replayM, replayK, replayPreAge, len(setups), median(setups), median(walls))

	fr, err := newFigureRunner(env, rep)
	if err != nil {
		return err
	}
	p := &sessionPhase{sess: sess}
	if env.traced {
		p.tr = newTracer(1)
	}
	var heap float64
	start := time.Now()
	for b := 0; b < replayBlocks || time.Since(start) < env.seconds || len(fr.times) < 3; {
		if b < replayBlocks && time.Since(start) >= time.Duration(b)*env.seconds/replayBlocks {
			// Start the block on a collected heap, so the figure's
			// garbage is not collected on the session's time.
			runtime.GC()
			if err := p.block(ctx, replayRounds/replayBlocks); err != nil {
				return err
			}
			if b++; b == replayBlocks {
				heap = liveHeapMB()
			}
			continue
		}
		if err := fr.run(ctx); err != nil {
			return err
		}
	}
	advTail, advQ := tail(p.advWall)
	readTail, readQ := tail(p.readWall)
	perCPUSecond := float64(p.calls+p.reads) / (p.busy + p.readBusy).Seconds()
	fmt.Printf("session phase: %d rounds in %d AdvanceContext calls of %d at M=%d K=%d, age %d→%d, in %d blocks\n",
		p.rounds, p.calls, replayChunk, replayM, replayK, replayPreAge, sess.NextRound()-1, replayBlocks)
	fmt.Printf("  wall: advance p50 %.3f ms, p%g %.3f ms (n=%d); read p50 %.4f ms, p%g %.4f ms (n=%d, per call over batches of %d)\n",
		median(p.advWall), 100*advQ, advTail, len(p.advWall),
		median(p.readWall), 100*readQ, readTail, len(p.readWall), replayReads)
	fmt.Printf("  calibrated CPU: advance p50 %.3f ms, read p50 %.4f ms; %.1f calls per CPU-second, %.0f rounds per CPU-second\n",
		median(p.advCPU), median(p.readCPU), perCPUSecond, float64(p.rounds)/p.busy.Seconds())
	fmt.Printf("figure phase: fig7-8 at scale 100 regenerated %d times with %d workers, median %.3f s calibrated CPU (%.3f s wall)\n",
		len(fr.times), env.cpus, median(fr.times), median(fr.walls))
	rep.Attempted = p.calls + p.reads + len(fr.times)

	if !env.traced {
		rep.set("setup_s", median(setups), "s")
		rep.set("advance_cpu_ms", median(p.advCPU), "ms")
		rep.set("read_cpu_ms", median(p.readCPU), "ms")
		rep.set("requests_per_cpu_s", perCPUSecond, "1/s")
		rep.set("sim_rounds_per_cpu_s", float64(p.rounds)/p.busy.Seconds(), "1/s")
		rep.set("heap_mb", heap, "MB")
		rep.set("figure_cpu_s", median(fr.times), "s")
		return nil
	}

	rep.set("wall.advance_p50_ms", median(p.advPlain), "ms")
	rep.set("wall.read_p50_ms", median(p.readWall), "ms")
	wallMS := sum(p.advWall) + sum(p.readWall)*replayReads
	rep.set("wall.capacity_rps", float64(p.calls+p.reads)/wallMS*1000, "1/s")
	rep.set("trace.overhead_advance_p50_ms", median(p.advTraced)-median(p.advPlain), "ms")
	rep.set("tail.advance_p99_ms", advTail, "ms")
	rep.set("tail.read_p99_ms", readTail, "ms")
	rep.set("core.advance_us", 1000*mean(p.advWall), "us")
	rep.set("core.round_us", us(p.busy)/float64(p.rounds), "us")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	extra := 0
	for i := 0; i < 40; i++ {
		adv, err := sess.AdvanceContext(ctx, replayChunk)
		if err != nil {
			return err
		}
		extra += len(adv.Played)
	}
	runtime.ReadMemStats(&m1)
	rep.set("core.allocs_per_round", float64(m1.Mallocs-m0.Mallocs)/float64(extra), "count")
	t0 := time.Now()
	snap, err := sess.Save()
	if err != nil {
		return err
	}
	rep.set("session.save_ms", ms(time.Since(t0)), "ms")
	rep.set("session.snapshot_bytes", float64(len(snap)), "bytes")
	setMicro(rep, runMicro(env.seed, replayM, replayK, sess.NextRound()-1))
	zeroBypassed(rep)
	fmt.Println("self time per layer call (paper_replay calls one layer at a time)")
	fmt.Printf("  %-36s %10.1f µs (mean of %d)\n", "Session.AdvanceContext (25 rounds)", 1000*mean(p.advWall), p.calls)
	fmt.Printf("  %-36s %10.1f µs (mean of %d)\n", "Session.Result / Session.Estimates", 1000*mean(p.readWall), p.reads)
	fmt.Printf("  %-36s %10.1f ms (median of %d)\n", "experiment.Fig7And8 (scale 100)", 1000*median(fr.walls), len(fr.walls))
	return p.tr.writeSpans(env.spanFile())
}
