//go:build linux

package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are calibrated CPU times, not wall times.
//
// On a virtual machine whose host runs other tenants, the host takes
// the vCPUs away in bursts that last minutes ("steal"), and while it
// is busy the vCPUs that do run go slower, as their cores' other
// hardware threads and caches are shared with the other tenants. In
// such a burst every wall time of a run read 30-100% slower and every
// CPU time 20-50% slower, while the program did the same work. So the
// benchmark measures the process's CPU time, which leaves stolen time
// out on a guest kernel with paravirtual steal accounting, and divides
// it by the CPU time of a fixed piece of work of its own (calUnit),
// measured on the same processor just before: a calibrated time is
// the CPU time the work would take on a machine where calUnit takes
// calRef.
//
// Wall times are still measured and printed; the traced run reports
// them as per-layer metrics.

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID: the CPU
// time, user and system, of every thread of the process.
const clockProcessCPUTime = 2

// processCPU returns the CPU time the process has used so far.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// calRef is the calibration unit's CPU time that calibrated times are
// expressed against: about what calUnit takes on a quiet 2-vCPU Xeon
// VM, so calibrated times there read close to CPU times.
const calRef = 300 * time.Microsecond

// calN is how many values calUnit works on.
const calN = 1024

// calRecord is what calUnit encodes and decodes: shaped like the
// broker's JSON, a few named fields and a run of floats.
type calRecord struct {
	ID     string         `json:"id"`
	Round  int            `json:"round"`
	Values []float64      `json:"values"`
	Counts map[string]int `json:"counts"`
}

var (
	calSink  float64
	calSinkB []byte
)

// calUnit is the calibration work, written in the benchmark so that no
// change to the program moves it. It does what the program does most:
// float math, hashing into a map, number formatting and sorting over
// calN pseudo-random values (what the mechanism's rounds do), then a
// JSON encode and decode (what a request does), allocating as it goes.
// The mix matters: a Session advance's CPU time kept within ±5% of the
// unit's over a minute in which both moved by 40%, and so did a
// loopback HTTP request's, while a unit of floats alone tracked the
// request only to ±8%, and one of random reads over 4 MB not at all.
func calUnit() {
	x := uint64(88172645463325252)
	xs := make([]float64, calN)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x>>11) / (1 << 53)
	}
	m := make(map[uint64]float64, calN/4)
	var buf []byte
	s := 0.0
	for i, v := range xs {
		m[uint64(i*2654435761)%1021] += v
		s += math.Sqrt(v) * math.Log1p(v)
		if i%4 == 0 {
			buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		}
	}
	sort.Float64s(xs)
	rec := calRecord{ID: "job-17", Round: calN, Values: xs[:96], Counts: map[string]int{"a": 1, "bb": 2, "ccc": 3}}
	data, err := json.Marshal(rec)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		panic("calibration unit: " + err.Error())
	}
	calSink = s + xs[calN/2] + float64(len(m)) + rec.Values[0]
	calSinkB = append(buf, data...)
}

// calReps is how many units one calibration runs.
const calReps = 3

// calibrate returns calUnit's CPU time: the median of calReps units.
func calibrate() time.Duration {
	ts := make([]time.Duration, calReps)
	for i := range ts {
		c0 := processCPU()
		calUnit()
		ts[i] = processCPU() - c0
	}
	return medianDuration(ts)
}

// A calibration serves recalAfter of measured CPU time, or recalAge of
// wall time, whichever ends first: the speed of a shared host's vCPUs
// drifts over seconds, and calibrating after every 5 ms of work keeps
// the overhead near 15%.
const (
	recalAfter = 5 * time.Millisecond
	recalAge   = 100 * time.Millisecond
)

// meter measures calibrated CPU times. It calibrates before a
// measurement when its calibration is missing or used up, and again
// after a measurement longer than recalAfter, which is then scaled by
// the mean of the two.
//
// A long measurement is not calibrated while it runs. Calibrations
// taken then, on a goroutine that the runtime switched to from the
// work, read 35-50% slower than those around it, probably from caches
// the work had filled or its garbage collection, so the program's
// memory use would have moved the scale.
type meter struct {
	cal    time.Duration
	at     time.Time // when cal was measured
	served time.Duration
}

// measure runs f and returns its calibrated CPU time. Whatever else
// the process runs meanwhile (the broker, the collector) counts.
func (m *meter) measure(f func() error) (time.Duration, error) {
	if m.cal == 0 || m.served >= recalAfter || time.Since(m.at) >= recalAge {
		m.cal, m.at, m.served = calibrate(), time.Now(), 0
	}
	c0 := processCPU()
	err := f()
	d := processCPU() - c0
	cal := m.cal
	if d >= recalAfter {
		after := calibrate()
		cal = (m.cal + after) / 2
		m.cal, m.at, m.served = after, time.Now(), 0
	} else {
		m.served += d
	}
	return time.Duration(float64(d) * float64(calRef) / float64(cal)), err
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// onOneProc runs f with GOMAXPROCS set to 1 and then restores it.
// Every CPU-timed phase runs so: its work and its calibration then
// share a thread and a vCPU, and no idle processor's search for work
// is billed to it.
func onOneProc(f func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return f()
}
