package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"cmabhs/client"
	"cmabhs/internal/loadgen"
)

// outcome classifies one request the way the error accounting needs.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeFailed
)

func classify(err error) outcome {
	if err == nil {
		return outcomeOK
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		return outcomeShed
	}
	return outcomeFailed
}

// sample is one issued request of the open loop.
type sample struct {
	op   loadgen.Op
	conn int
	// lat runs from when the request was due to when its response was
	// consumed, so time spent queued behind a slow predecessor on the
	// same connection counts.
	lat time.Duration
	// lag is how late the driver itself sent the request: send time
	// minus the later of its due time and the previous completion.
	lag     time.Duration
	svc     time.Duration // send to completion: the time the connection was busy
	outcome outcome
	traced  bool // the traced run's hooks recorded this request's spans
}

// loopResult is everything one open-loop phase measured.
type loopResult struct {
	samples    []sample
	backlogMax int // most arrivals already due but not yet sent, on one connection
	elapsed    time.Duration
}

// issueFunc sends one request on connection conn and reports whether
// it was traced and how it ended. It runs only on that connection's
// goroutine.
type issueFunc func(ctx context.Context, conn int, a loadgen.Arrival) (traced bool, err error)

// runOpenLoop plays a schedule against the broker: one goroutine per
// connection, which owns the jobs with job % conns equal to its index
// and sends their arrivals in order, each when it falls due (never
// early) or, when the connection is still busy, as soon as it is free.
// It returns when every arrival has been answered.
func runOpenLoop(ctx context.Context, arr []loadgen.Arrival, conns int, issue issueFunc) loopResult {
	plan := make([][]loadgen.Arrival, conns)
	for _, a := range arr {
		plan[a.Job%conns] = append(plan[a.Job%conns], a)
	}
	type connOut struct {
		samples    []sample
		backlogMax int
	}
	outs := make([]connOut, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			arr := plan[c]
			out := connOut{samples: make([]sample, 0, len(arr))}
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			var prevDone time.Duration
			for i, a := range arr {
				if !waitUntil(ctx, timer, start.Add(a.At)) {
					return
				}
				sent := time.Since(start)
				due := sort.Search(len(arr)-i, func(k int) bool { return arr[i+k].At > sent })
				out.backlogMax = max(out.backlogMax, due-1)
				traced, err := issue(ctx, c, a)
				done := time.Since(start)
				out.samples = append(out.samples, sample{
					op:      a.Op,
					conn:    c,
					lat:     done - a.At,
					svc:     done - sent,
					lag:     sent - max(a.At, prevDone),
					outcome: classify(err),
					traced:  traced,
				})
				prevDone = done
			}
			outs[c] = out
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.backlogMax = max(res.backlogMax, o.backlogMax)
	}
	return res
}

// latencies returns the latencies (ms) of the successful samples that
// satisfy keep.
func (r loopResult) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.outcome == outcomeOK && keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// tail is the tail latency of lats over the whole window: p99, or with
// fewer than 1000 samples the highest quantile that still leaves ten
// samples beyond it. It returns the value and the quantile.
func tail(lats []float64) (value, q float64) {
	q = tailQuantile(len(lats))
	return quantile(lats, q), q
}

func (r loopResult) count(o outcome) int {
	n := 0
	for _, s := range r.samples {
		if s.outcome == o {
			n++
		}
	}
	return n
}

func (r loopResult) lagMax() time.Duration {
	var m time.Duration
	for _, s := range r.samples {
		if s.lag > m {
			m = s.lag
		}
	}
	return m
}

func isAdvance(s sample) bool { return s.op == loadgen.OpAdvance }
func isRead(s sample) bool    { return s.op == loadgen.OpStatus || s.op == loadgen.OpEstimates }

// Go timers on Linux wake at millisecond granularity: a sleep shorter
// than 1 ms lasts about 1 ms, a longer one ends up to ~0.3 ms late. So
// a connection sleeps on a timer only when its next arrival is at least
// timerSlack+1ms away, waking timerSlack before it is due, and spins on
// the clock for the rest; it then sends within microseconds of the due
// time. A connection spins only while it has nothing in flight, and it
// spins without yielding: a goroutine that yields in a loop stays
// runnable, and a processor that keeps finding a runnable goroutine
// does not poll the network, which would delay the responses being
// timed on the other connection.
const timerSlack = 500 * time.Microsecond

// waitUntil blocks until due; false when ctx ended first.
func waitUntil(ctx context.Context, timer *time.Timer, due time.Time) bool {
	if wait := time.Until(due); wait >= timerSlack+time.Millisecond {
		timer.Reset(wait - timerSlack)
		select {
		case <-timer.C:
		case <-ctx.Done():
			return false
		}
	}
	for time.Now().Before(due) {
	}
	return ctx.Err() == nil
}

// lagQuantile is the q-quantile of the driver's send lateness (ms).
func (r loopResult) lagQuantile(q float64) float64 {
	lags := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lags[i] = ms(s.lag)
	}
	return quantile(lags, q)
}

// capacity is the utilization-law bound on the rate this phase's mix
// could be offered at: requests completed divided by the connections'
// mean busy time. At that rate the connections would be busy all the
// time; past it, their backlog grows without bound. The workloads deal
// jobs to connections evenly, so the mean is the estimate; the busiest
// connection is merely the one that drew the slower compactions.
func (r loopResult) capacity() float64 {
	conns := map[int]bool{}
	var busy time.Duration
	for _, s := range r.samples {
		conns[s.conn] = true
		busy += s.svc
	}
	if busy == 0 {
		return 0
	}
	return float64(len(r.samples)*len(conns)) / busy.Seconds()
}
