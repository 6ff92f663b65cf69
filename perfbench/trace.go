package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmabhs/internal/core"
	"cmabhs/internal/loadgen"
	"cmabhs/internal/roundlog"
	"cmabhs/internal/server"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanClient    = "client"    // client method call
	spanRoundTrip = "roundtrip" // http.RoundTripper.RoundTrip, response body included
	spanServe     = "serve"     // broker handler ServeHTTP
	spanCore      = "core"      // status.metrics.last_advance_seconds: job-lock wait + Session.AdvanceContext
	spanAppend    = "store.append"
	spanSave      = "store.save"
	spanReset     = "store.reset"
	spanLoad      = "store.load"
)

// reqHeader carries the benchmark's request id to the broker, which
// also adopts it as its own X-Request-ID.
const reqHeader = "X-Request-ID"

// span is one timed call. req is the benchmark-assigned request id the
// call belongs to (0: outside any request).
type span struct {
	Req   uint64        `json:"req"`
	Conn  int           `json:"conn"`
	Name  string        `json:"name"`
	Op    string        `json:"op,omitempty"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Bytes int           `json:"bytes,omitempty"`
	N     int           `json:"n,omitempty"`
	Err   bool          `json:"err,omitempty"`
}

// tracer records spans in memory. In a traced run every other request
// is traced; the rest pass through the same hooks untraced, so one
// window yields both the per-layer split and the tracing overhead.
// Calls outside a traced request (set-up, recovery) are not recorded.
type tracer struct {
	nextReq atomic.Uint64
	cur     []atomic.Uint64 // per connection: the request in flight

	mu    sync.Mutex
	spans []span
	owner map[string]int // job id → connection
}

func newTracer(conns int) *tracer {
	return &tracer{cur: make([]atomic.Uint64, conns), owner: make(map[string]int)}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setOwner registers the connection that owns a job, so the job's
// store calls nest under that connection's in-flight request.
func (t *tracer) setOwner(id string, conn int) {
	t.mu.Lock()
	t.owner[id] = conn
	t.mu.Unlock()
}

func (t *tracer) ownerReq(id string) (uint64, int) {
	t.mu.Lock()
	c, ok := t.owner[id]
	t.mu.Unlock()
	if !ok {
		return 0, -1
	}
	return t.cur[c].Load(), c
}

// beginRequest numbers a new request on conn. For a traced request
// it opens the client span and returns the function that closes it;
// for an untraced one it returns nil.
func (t *tracer) beginRequest(conn int, op loadgen.Op) func(error) {
	id := t.nextReq.Add(1)
	if id%2 == 0 {
		return nil
	}
	t.cur[conn].Store(id)
	start := time.Now()
	return func(err error) {
		t.record(span{Req: id, Conn: conn, Name: spanClient, Op: string(op), Start: start, Dur: time.Since(start), Err: err != nil})
		t.cur[conn].Store(0)
	}
}

// noteCore attaches the broker-reported core time to conn's request.
func (t *tracer) noteCore(conn int, secs float64) {
	if id := t.cur[conn].Load(); id != 0 {
		t.record(span{Req: id, Conn: conn, Name: spanCore, Dur: time.Duration(secs * float64(time.Second))})
	}
}

// wrapTransport returns conn's RoundTrip hook.
func (t *tracer) wrapTransport(conn int) func(http.RoundTripper) http.RoundTripper {
	return func(next http.RoundTripper) http.RoundTripper {
		return &tracedTransport{t: t, conn: conn, next: next}
	}
}

// tracedTransport times RoundTrip including the full response body, so
// the broker's handler span nests inside it and the client's own JSON
// decode is what remains of the client span.
type tracedTransport struct {
	t    *tracer
	conn int
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.cur[tt.conn].Load()
	if id == 0 {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, "bench-"+strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := tt.next.RoundTrip(req)
	var n int
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		n = len(body)
	}
	tt.t.record(span{Req: id, Conn: tt.conn, Name: spanRoundTrip, Start: start, Dur: time.Since(start), Bytes: n, Err: err != nil})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// wrapHandler times the broker's ServeHTTP for requests carrying a
// benchmark request id.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutPrefix(r.Header.Get(reqHeader), "bench-")
		req, err := strconv.ParseUint(id, 10, 64)
		if !ok || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{Req: req, Name: spanServe, Start: start, Dur: time.Since(start)})
	})
}

// wrapStore returns the timing RoundWAL decorator around ws.
func (t *tracer) wrapStore(ws *server.WALStore) server.Store {
	return &timedWAL{WALStore: ws, t: t}
}

// timedWAL times every Store and RoundWAL call into the real WALStore.
// It adds no behaviour: each method forwards its arguments and results
// unchanged.
type timedWAL struct {
	*server.WALStore
	t *tracer
}

var _ server.RoundWAL = (*timedWAL)(nil)

func (w *timedWAL) timed(name, id string, bytes, n int, fn func() error) {
	req, conn := w.t.ownerReq(id)
	if req == 0 {
		_ = fn()
		return
	}
	start := time.Now()
	err := fn()
	w.t.record(span{Req: req, Conn: conn, Name: name, Start: start, Dur: time.Since(start), Bytes: bytes, N: n, Err: err != nil})
}

func (w *timedWAL) Save(id string, data []byte) (err error) {
	w.timed(spanSave, id, len(data), 0, func() error { err = w.WALStore.Save(id, data); return err })
	return err
}

func (w *timedWAL) Load(id string) (data []byte, err error) {
	w.timed(spanLoad, id, 0, 0, func() error { data, err = w.WALStore.Load(id); return err })
	return data, err
}

func (w *timedWAL) ResetWAL(id string, base int) (err error) {
	w.timed(spanReset, id, 0, 0, func() error { err = w.WALStore.ResetWAL(id, base); return err })
	return err
}

func (w *timedWAL) AppendWAL(id string, recs []core.RoundRecord) (total int, err error) {
	w.timed(spanAppend, id, 0, len(recs), func() error { total, err = w.WALStore.AppendWAL(id, recs); return err })
	return total, err
}

func (w *timedWAL) AppendWALEncoded(id string, data []byte, n int) (total int, err error) {
	w.timed(spanAppend, id, len(data), n, func() error { total, err = w.WALStore.AppendWALEncoded(id, data, n); return err })
	return total, err
}

func (w *timedWAL) LoadWAL(id string) (seg *roundlog.Segment, err error) {
	w.timed(spanLoad, id, 0, 0, func() error { seg, err = w.WALStore.LoadWAL(id); return err })
	return seg, err
}

// reqSpans gathers one request's spans.
type reqSpans struct {
	op                         string
	client, rt, serve, core    time.Duration
	store                      time.Duration
	respBytes                  int
	hasClient, hasRT, hasServe bool
}

// byRequest folds the recorded spans into per-request totals.
func (t *tracer) byRequest() map[uint64]*reqSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]*reqSpans)
	for _, s := range t.spans {
		if s.Req == 0 {
			continue
		}
		r := out[s.Req]
		if r == nil {
			r = &reqSpans{}
			out[s.Req] = r
		}
		switch s.Name {
		case spanClient:
			r.op, r.client, r.hasClient = s.Op, s.Dur, true
		case spanRoundTrip:
			r.rt, r.respBytes, r.hasRT = s.Dur, s.Bytes, true
		case spanServe:
			r.serve, r.hasServe = s.Dur, true
		case spanCore:
			r.core += s.Dur
		default:
			r.store += s.Dur
		}
	}
	return out
}

// storeStats sums the store spans of one kind.
func (t *tracer) storeStats(name string) (calls int, total time.Duration, bytes, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			calls++
			total += s.Dur
			bytes += s.Bytes
			n += s.N
		}
	}
	return calls, total, bytes, n
}

// opSplit is the mean split of one op's traced requests across the
// layers, in µs per request: each layer's self time, its span minus
// the part its children cover. Children are disjoint in time, so the
// self times add up to the client span.
type opSplit struct {
	n                                        int
	client, decode, transport, handler, core float64
	store, respBytes                         float64
}

// splitByOp folds the traced requests into per-op means.
func splitByOp(reqs map[uint64]*reqSpans) map[string]*opSplit {
	out := map[string]*opSplit{}
	for _, r := range reqs {
		if !r.hasClient || !r.hasRT || !r.hasServe {
			continue
		}
		sp := out[r.op]
		if sp == nil {
			sp = &opSplit{}
			out[r.op] = sp
		}
		sp.n++
		sp.client += us(r.client)
		sp.decode += us(r.client - r.rt)
		sp.transport += us(r.rt - r.serve)
		sp.handler += us(r.serve - r.core - r.store)
		sp.core += us(r.core)
		sp.store += us(r.store)
		sp.respBytes += float64(r.respBytes)
	}
	for _, sp := range out {
		f := 1 / float64(sp.n)
		sp.client *= f
		sp.decode *= f
		sp.transport *= f
		sp.handler *= f
		sp.core *= f
		sp.store *= f
		sp.respBytes *= f
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Req < spans[j].Req })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable renders one op's split. observed is the mean latency
// of the same requests from their due time; what it adds to the client
// span is time queued in the driver behind the connection's previous
// request.
func printSelfTable(w io.Writer, op string, sp *opSplit, observed float64) {
	fmt.Fprintf(w, "self time per %s request (mean over %d traced requests)\n", op, sp.n)
	rows := []struct {
		name string
		v    float64
	}{
		{"driver queue (due to send)", observed - sp.client},
		{"client (encode + decode)", sp.decode},
		{"http transport", sp.transport},
		{"server handler self", sp.handler},
		{"core (lock wait + AdvanceContext)", sp.core},
		{"store", sp.store},
	}
	var total float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %10.1f µs\n", r.name, r.v)
		total += r.v
	}
	fmt.Fprintf(w, "  %-36s %10.1f µs\n", "sum of layers", total)
	fmt.Fprintf(w, "  %-36s %10.1f µs (client span %.1f µs)\n", "observed from due time", observed, sp.client)
}

// perLayer reports the serve workloads' per-layer metrics from the
// traced requests of window and prints the self-time tables.
func (t *tracer) perLayer(rep *report, reqs map[uint64]*reqSpans, window loopResult) {
	splits := splitByOp(reqs)
	get := func(op loadgen.Op) *opSplit {
		if sp := splits[string(op)]; sp != nil {
			return sp
		}
		return &opSplit{}
	}
	adv, status, est := get(loadgen.OpAdvance), get(loadgen.OpStatus), get(loadgen.OpEstimates)
	rep.set("client.decode_us", adv.decode, "us")
	rep.set("http.transport_us", adv.transport, "us")
	rep.set("http.advance_resp_bytes", adv.respBytes, "bytes")
	rep.set("http.read_resp_bytes", perCall(status.respBytes*float64(status.n)+est.respBytes*float64(est.n), status.n+est.n), "bytes")
	rep.set("server.handler_self_us.advance", adv.handler, "us")
	rep.set("server.handler_self_us.status", status.handler, "us")
	rep.set("server.handler_self_us.estimates", est.handler, "us")
	rep.set("core.advance_us", adv.core, "us")

	appends, appendT, appendB, appendN := t.storeStats(spanAppend)
	saves, saveT, saveB, _ := t.storeStats(spanSave)
	resets, resetT, _, _ := t.storeStats(spanReset)
	rep.set("store.appends", float64(appends), "count")
	rep.set("store.append_us", perCall(us(appendT), appends), "us")
	rep.set("store.saves", float64(saves), "count")
	rep.set("store.save_ms", perCall(us(saveT)/1000, saves), "ms")
	rep.set("store.reset_us", perCall(us(resetT), resets), "us")
	rep.set("store.bytes_per_round", perCall(float64(appendB), appendN), "bytes")
	rep.set("store.snapshot_bytes", perCall(float64(saveB), saves), "bytes")

	observed := map[loadgen.Op][]float64{}
	for _, s := range window.samples {
		if s.traced && s.outcome == outcomeOK {
			observed[s.op] = append(observed[s.op], us(s.lat))
		}
	}
	for _, op := range []loadgen.Op{loadgen.OpAdvance, loadgen.OpStatus, loadgen.OpEstimates} {
		if sp := splits[string(op)]; sp != nil {
			printSelfTable(os.Stdout, string(op), sp, mean(observed[op]))
		}
	}
}

func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}
