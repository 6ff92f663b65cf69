package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; TestBenchmarkJSONMatches keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. Their times are process CPU times (see processCPU).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"advance_cpu_ms", "ms"},
	{"read_cpu_ms", "ms"},
	{"requests_per_cpu_s", "1/s"},
	{"sim_rounds_per_cpu_s", "1/s"},
	{"figure_cpu_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that bypasses a
// layer reports that layer's metrics as 0: no call was made. The
// wall.* and tail.* latencies are end-to-end wall times; they sit
// here, without a bound, because on a shared 2-vCPU host wall times
// follow the host's other tenants: medians moved 20-60% and
// millisecond tails 40-100% (quartile spread over median) between runs
// of the same code.
var perLayer = []metricDef{
	{"wall.advance_p50_ms", "ms"},
	{"wall.read_p50_ms", "ms"},
	{"wall.capacity_rps", "1/s"},
	{"tail.advance_p99_ms", "ms"},
	{"tail.read_p99_ms", "ms"},
	{"client.decode_us", "us"},
	{"http.transport_us", "us"},
	{"http.advance_resp_bytes", "bytes"},
	{"http.read_resp_bytes", "bytes"},
	{"server.handler_self_us.advance", "us"},
	{"server.handler_self_us.status", "us"},
	{"server.handler_self_us.estimates", "us"},
	{"server.shed_count", "count"},
	{"core.advance_us", "us"},
	{"core.round_us", "us"},
	{"core.allocs_per_round", "count"},
	{"store.append_us", "us"},
	{"store.appends", "count"},
	{"store.save_ms", "ms"},
	{"store.saves", "count"},
	{"store.reset_us", "us"},
	{"store.bytes_per_round", "bytes"},
	{"store.snapshot_bytes", "bytes"},
	{"store.retries", "count"},
	{"bandit.selectk_ns", "ns"},
	{"bandit.ucbgreedy_ns", "ns"},
	{"game.solve_ns", "ns"},
	{"rng.truncnormal_ns", "ns"},
	{"ledger.settle_ns", "ns"},
	{"session.save_ms", "ms"},
	{"session.snapshot_bytes", "bytes"},
	{"driver.lag_max_ms", "ms"},
	{"driver.backlog_max", "count"},
	{"trace.overhead_advance_p50_ms", "ms"},
}

// bypassedBy are the layers paper_replay never calls.
var bypassedBy = []string{"client.", "http.", "server.", "store.", "driver."}

// zeroBypassed reports every metric of a bypassed layer as 0.
func zeroBypassed(rep *report) {
	for _, d := range perLayer {
		for _, p := range bypassedBy {
			if strings.HasPrefix(d.name, p) {
				rep.set(d.name, 0, d.unit)
			}
		}
	}
}

// checkMetricSet verifies a run reported exactly the expected metrics
// with the expected units.
func checkMetricSet(rep *report, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var problems []string
	for _, d := range want {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+d.name)
		case m.Unit != d.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", d.name, m.Unit, d.unit))
		}
	}
	if len(rep.Metrics) != len(want) {
		known := make(map[string]bool, len(want))
		for _, d := range want {
			known[d.name] = true
		}
		for name := range rep.Metrics {
			if !known[name] {
				problems = append(problems, "unexpected "+name)
			}
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return fmt.Errorf("metric set: %s", strings.Join(problems, "; "))
	}
	return nil
}
