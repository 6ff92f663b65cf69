// Command cdt-sim runs one CDT market simulation end to end and
// prints the learning and profit summary, optionally with per-round
// detail.
//
// Usage:
//
//	cdt-sim [-m 300] [-k 10] [-n 100000] [-l 10] [-policy cmab-hs]
//	        [-seed 1] [-solver closed-form] [-epsilon 0.1]
//	        [-omega 1000] [-theta 0.1] [-lambda 1] [-verbose-rounds 0]
//	        [-save run.snap] [-resume run.snap]
//
// With -save, an interrupted run (Ctrl-C) writes a resumable snapshot
// before printing its partial summary; -resume continues such a run
// (the snapshot carries the full configuration, so the shape flags
// are ignored) and finishes with exactly the result the uninterrupted
// run would have produced.
//
// With -server URL the simulation runs on a cdt-server broker instead
// of in-process: the shape flags become a job request, rounds are
// advanced remotely in -remote-chunk batches, and the identical
// summary is printed from the job's final result. The session lives on
// the broker, so a Ctrl-C here leaves the job resumable over there
// (it is deleted only after a completed run).
//
// Result tables go to stdout; diagnostics are structured log lines on
// stderr (-log-format text|json, -log-level debug|info|warn|error),
// sharing the broker's log schema so one shipper config covers every
// binary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"cmabhs"
	"cmabhs/client"
	"cmabhs/internal/core"
	"cmabhs/internal/roundlog"
	"cmabhs/internal/tracing"
)

// fatal logs a structured error line and exits.
func fatal(msg string, err error) {
	slog.Error(msg, "error", err)
	os.Exit(1)
}

func main() {
	var (
		m          = flag.Int("m", 300, "number of candidate sellers M")
		k          = flag.Int("k", 10, "sellers selected per round K")
		n          = flag.Int("n", 100_000, "trading rounds N")
		l          = flag.Int("l", 10, "points of interest L")
		seed       = flag.Int64("seed", 1, "random seed")
		policy     = flag.String("policy", "cmab-hs", "selection policy: cmab-hs|optimal|epsilon-first|epsilon-greedy|random|thompson|ucb1")
		epsilon    = flag.Float64("epsilon", 0.1, "epsilon for the epsilon policies")
		solver     = flag.String("solver", "closed-form", "game solver: closed-form|exact|numeric")
		omega      = flag.Float64("omega", 1000, "consumer valuation omega")
		theta      = flag.Float64("theta", 0.1, "platform cost theta")
		lambda     = flag.Float64("lambda", 1, "platform cost lambda")
		sd         = flag.Float64("sd", 0.1, "observation noise std-dev")
		verbose    = flag.Int("verbose-rounds", 0, "print the first N round records")
		compare    = flag.Bool("compare", false, "run every policy on the same market and print a comparison table")
		logPath    = flag.String("log", "", "write the round-by-round trade journal (JSONL) to this path")
		tracePath  = flag.String("trace", "", "derive the seller population from this mobility-trace CSV (see cdt-trace)")
		savePath   = flag.String("save", "", "write a resumable snapshot to this path when the run is interrupted or finishes")
		resumePath = flag.String("resume", "", "resume from a snapshot previously written by -save (shape flags are ignored)")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum diagnostic log level: debug, info, warn, or error")
		serverURL  = flag.String("server", "", "run the simulation on this cdt-server broker instead of in-process, e.g. http://localhost:8080")
		chunk      = flag.Int("remote-chunk", 10_000, "with -server: rounds advanced per remote call")
	)
	flag.Parse()

	lg, err := tracing.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdt-sim:", err)
		os.Exit(2)
	}
	slog.SetDefault(lg)

	// Ctrl-C / SIGTERM cancels the run at the next round boundary;
	// whatever completed by then is still summarized (and journaled)
	// below as a partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serverURL != "" {
		if *compare || *resumePath != "" || *savePath != "" || *tracePath != "" || *logPath != "" {
			slog.Error("-server supports only the basic shape flags (not -compare/-resume/-save/-trace/-log)")
			os.Exit(1)
		}
		runRemote(ctx, *serverURL, *chunk, client.JobRequest{
			RandomSellers: *m,
			K:             *k,
			Rounds:        *n,
			PoIs:          *l,
			Seed:          *seed,
			Policy:        *policy,
			Epsilon:       *epsilon,
			Solver:        *solver,
			Omega:         *omega,
			Theta:         *theta,
			Lambda:        *lambda,
			ObservationSD: *sd,
			CollectData:   *verbose > 0,
		}, *verbose)
		return
	}

	var cfg cmabhs.Config
	if *resumePath != "" {
		if *compare {
			slog.Error("-resume and -compare are mutually exclusive")
			os.Exit(1)
		}
		runResumed(ctx, *resumePath, *savePath, *logPath, *verbose)
		return
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal("open mobility trace", err)
		}
		recs, err := cmabhs.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			fatal("parse mobility trace", err)
		}
		pois, taxis, traceCfg := cmabhs.TraceMarket(recs, *l, *m, *seed)
		fmt.Printf("trace market      %d trips, PoIs %v, %d sellers\n", len(recs), pois, len(taxis))
		cfg = traceCfg
		cfg.K = *k
		cfg.Rounds = *n
	} else {
		cfg = cmabhs.RandomConfig(*m, *k, *n, *seed)
		cfg.PoIs = *l
	}
	if *compare {
		comparePolicies(ctx, cfg, *k, *epsilon, *solver, *omega, *theta, *lambda, *sd)
		return
	}
	cfg.Policy = cmabhs.Policy(*policy)
	cfg.Epsilon = *epsilon
	cfg.Solver = cmabhs.Solver(*solver)
	cfg.Omega = *omega
	cfg.Theta = *theta
	cfg.Lambda = *lambda
	cfg.ObservationSD = *sd
	cfg.KeepRounds = *verbose > 0 || *logPath != ""

	sess, err := cmabhs.NewSession(cfg)
	if err != nil {
		fatal("build session", err)
	}
	runSession(ctx, sess, *savePath, *logPath, *verbose)
}

// runResumed restores a session from a -save snapshot and continues
// it; the snapshot carries the full configuration.
func runResumed(ctx context.Context, resumePath, savePath, logPath string, verbose int) {
	data, err := os.ReadFile(resumePath)
	if err != nil {
		fatal("read snapshot", err)
	}
	sess, err := cmabhs.ResumeSession(data)
	if err != nil {
		fatal("resume snapshot", err)
	}
	fmt.Printf("resumed           %s at round %d of %d\n", resumePath, sess.NextRound(), sess.Config().Rounds)
	runSession(ctx, sess, savePath, logPath, verbose)
}

// runSession advances the session to completion (or interruption) and
// prints the summary. On interruption with -save set, the snapshot is
// written before anything else so the run cannot be lost to a failure
// while flushing the partial summary.
func runSession(ctx context.Context, sess *cmabhs.Session, savePath, logPath string, verbose int) {
	cfg := sess.Config()
	adv, err := sess.AdvanceContext(ctx, 0)
	if err != nil {
		fatal("advance", err)
	}
	interrupted := adv.Stopped == cmabhs.StoppedCanceled
	if savePath != "" && (interrupted || sess.Done()) {
		if err := writeSnapshot(savePath, sess); err != nil {
			slog.Error("write snapshot", "path", savePath, "error", err)
		} else {
			fmt.Printf("snapshot          %s (continue with -resume %s)\n", savePath, savePath)
		}
	}
	res := sess.Result()
	if interrupted {
		fmt.Printf("interrupted       partial results for %d of %d rounds\n", res.Rounds, cfg.Rounds)
	}
	if logPath != "" {
		if err := writeJournal(logPath, res); err != nil {
			fatal("write trade journal", err)
		}
		fmt.Printf("trade journal     %s (%d rounds)\n", logPath, res.Rounds)
	}

	printSummary(res, len(cfg.Sellers), cfg.K, cfg.PoIs, verbose)
}

// printSummary renders the run summary — shared by the in-process and
// -server paths, so both print the identical table.
func printSummary(res *cmabhs.Result, sellers, k, pois, verbose int) {
	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("rounds            %d (M=%d, K=%d, L=%d)\n", res.Rounds, sellers, k, pois)
	fmt.Printf("realized revenue  %.2f\n", res.RealizedRevenue)
	fmt.Printf("expected revenue  %.2f\n", res.ExpectedRevenue)
	fmt.Printf("regret            %.2f (Theorem 19 bound %.3g)\n", res.Regret, res.RegretBound)
	fmt.Printf("consumer profit   %.2f total, %.4f per round\n", res.ConsumerProfit, res.AvgConsumerProfit())
	fmt.Printf("platform profit   %.2f total, %.4f per round\n", res.PlatformProfit, res.AvgPlatformProfit())
	fmt.Printf("seller profit     %.2f total, %.4f per selected seller per round\n",
		res.SellerProfit, res.AvgSellerProfit(k))

	if verbose > 0 {
		fmt.Println("\nround  selected           p^J      p        sum(tau)  PoC       PoP")
		for i, r := range res.PerRound {
			if i >= verbose {
				break
			}
			sel := fmt.Sprint(r.Selected)
			if len(sel) > 18 {
				sel = sel[:15] + "..."
			}
			fmt.Printf("%-6d %-18s %-8.3f %-8.3f %-9.3f %-9.3f %-9.3f\n",
				r.Round, sel, r.ConsumerPrice, r.PlatformPrice, r.TotalTime, r.ConsumerProfit, r.PlatformProfit)
		}
	}
}

// runRemote runs the simulation on a broker through the typed client:
// create the job, advance it in chunks until done, print the same
// summary from the final status, and delete the job. An interrupt
// leaves the job live on the broker (its id was printed) so it can be
// inspected or resumed there.
func runRemote(ctx context.Context, baseURL string, chunk int, req client.JobRequest, verbose int) {
	c := client.New(baseURL)
	st, err := c.CreateJob(ctx, req)
	if err != nil {
		fatal("create remote job", err)
	}
	fmt.Printf("remote job        %s%s (%d sellers, K=%d, %d rounds)\n",
		baseURL, st.Links.Self, st.Sellers, st.K, st.Rounds)
	if chunk <= 0 {
		chunk = 10_000
	}
	for !st.Done {
		adv, err := c.Advance(ctx, st.ID, chunk)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Printf("interrupted       job %s left live on the broker at round %d\n", st.ID, st.NextRound)
				os.Exit(130)
			}
			fatal("advance remote job", err)
		}
		st = &adv.Status
		slog.Info("advanced", "job", st.ID, "next_round", st.NextRound,
			"rounds", st.Rounds, "rounds_per_sec", st.Metrics.RoundsPerSec)
	}
	if st.Result == nil {
		fatal("remote job finished without a result", fmt.Errorf("job %s", st.ID))
	}
	printSummary(st.Result, st.Sellers, st.K, req.PoIs, verbose)
	if _, err := c.Delete(ctx, st.ID); err != nil {
		slog.Warn("delete remote job", "job", st.ID, "error", err)
	}
}

// writeSnapshot saves the session durably: temp file + rename so an
// existing snapshot is never replaced by a torn one.
func writeSnapshot(path string, sess *cmabhs.Session) error {
	data, err := sess.Save()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// comparePolicies runs the full policy set on identically drawn
// markets and prints one row per policy.
func comparePolicies(ctx context.Context, base cmabhs.Config, k int, epsilon float64, solver string, omega, theta, lambda, sd float64) {
	policies := []cmabhs.Policy{
		cmabhs.PolicyOptimal, cmabhs.PolicyCMABHS, cmabhs.PolicyEpsilonFirst,
		cmabhs.PolicyEpsilonGreedy, cmabhs.PolicyThompson, cmabhs.PolicyUCB1,
		cmabhs.PolicyRandom,
	}
	fmt.Printf("%-14s %14s %14s %12s %12s %12s\n",
		"policy", "revenue", "regret", "PoC/round", "PoP/round", "PoS/seller")
	for _, p := range policies {
		cfg := base
		cfg.Policy = p
		cfg.Epsilon = epsilon
		cfg.Solver = cmabhs.Solver(solver)
		cfg.Omega = omega
		cfg.Theta = theta
		cfg.Lambda = lambda
		cfg.ObservationSD = sd
		res, err := cmabhs.RunContext(ctx, cfg)
		if err != nil {
			fatal("run policy "+string(p), err)
		}
		if res.Stopped == cmabhs.StoppedCanceled {
			slog.Warn("interrupted; comparison table is incomplete")
			os.Exit(130)
		}
		fmt.Printf("%-14s %14.0f %14.0f %12.2f %12.2f %12.3f\n",
			res.Policy, res.RealizedRevenue, res.Regret,
			res.AvgConsumerProfit(), res.AvgPlatformProfit(), res.AvgSellerProfit(k))
	}
}

// writeJournal dumps the run's per-round records as a roundlog
// journal (the durable audit trail; replayable with internal/roundlog).
func writeJournal(path string, res *cmabhs.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := roundlog.NewWriter(f, res.Policy)
	if err != nil {
		return err
	}
	for i := range res.PerRound {
		r := &res.PerRound[i]
		rec := core.RoundRecord{
			Round:         r.Round,
			Selected:      r.Selected,
			PJ:            r.ConsumerPrice,
			P:             r.PlatformPrice,
			Taus:          r.SensingTimes,
			PoC:           r.ConsumerProfit,
			PoP:           r.PlatformProfit,
			SellerProfits: r.SellerProfits,
			NoTrade:       r.NoTrade,
			Realized:      r.Realized,
		}
		if err := w.Append(&rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
