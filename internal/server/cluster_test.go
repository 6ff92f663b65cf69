package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cmabhs/internal/tracing"
)

const clusterTTL = 30 * time.Second

// testNode is one in-process broker of a test cluster: a Server over
// its own WALStore handle, all handles sharing one state directory
// and one fake clock, fronted by a real HTTP listener so proxied
// requests travel the wire.
type testNode struct {
	s  *Server
	ws *WALStore
	ts *httptest.Server
}

func (n *testNode) close() {
	if n.ts != nil {
		n.ts.Close()
	}
	n.ws.Close()
}

// newTestCluster builds one broker per id over a shared dir and wires
// the full peer topology into each.
func newTestCluster(t *testing.T, dir string, clk *fakeClock, ids ...string) map[string]*testNode {
	t.Helper()
	nodes := make(map[string]*testNode, len(ids))
	var peers []Peer
	for _, id := range ids {
		ws, err := NewWALStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		ws.Now = clk.Now
		s := New()
		s.Store = ws
		s.CompactEvery = 16
		s.Cluster = &Cluster{NodeID: id, LeaseTTL: clusterTTL, Now: clk.Now}
		n := &testNode{s: s, ws: ws}
		n.ts = httptest.NewServer(s.Handler())
		peers = append(peers, Peer{ID: id, URL: n.ts.URL})
		nodes[id] = n
	}
	for _, n := range nodes {
		n.s.Cluster.Peers = peers
		if err := n.s.ValidateCluster(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.close()
		}
	})
	return nodes
}

const clusterJob = `{"random_sellers":4,"k":2,"rounds":40,"seed":11}`

// httpJSON performs a request against a live node and decodes the
// response body into out (when non-nil).
func httpJSON(t *testing.T, method, url string, body string, hdr map[string]string, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s -> %d: %v: %s", method, url, resp.StatusCode, err, data)
		}
	}
	resp.Body.Close()
	return resp
}

func TestClusterCreateOwnsAndNamespacesJob(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	var st JobStatus
	resp := httpJSON(t, http.MethodPost, nodes["a"].ts.URL+"/v1/jobs", clusterJob, nil, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if st.ID != "job-a-1" {
		t.Fatalf("clustered id %q, want job-a-1", st.ID)
	}
	if st.Lease == nil || st.Lease.Owner != "a" || st.Lease.Epoch != 1 {
		t.Fatalf("lease block: %+v", st.Lease)
	}
	if st.Lease.ExpiresInSeconds <= 0 {
		t.Fatalf("lease already lapsed at birth: %+v", st.Lease)
	}
	if st.Links.Owner != nodes["a"].ts.URL+"/v1/jobs/job-a-1" {
		t.Fatalf("owner link: %q", st.Links.Owner)
	}
	if got := nodes["a"].s.leasesHeld.Load(); got != 1 {
		t.Fatalf("leases held: %d", got)
	}
}

// TestClusterProxyStitchesTraces is the request-forwarding contract:
// a request for a's job landing on b is served through b transparently,
// the relayed response is stamped with the forwarder, the client's
// request id survives both hops, and the trace id the client sent is
// the one the OWNER's span carries — one trace across two nodes.
func TestClusterProxyStitchesTraces(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	var created JobStatus
	httpJSON(t, http.MethodPost, nodes["a"].ts.URL+"/v1/jobs", clusterJob, nil, &created)

	traceID := "0123456789abcdef0123456789abcdef"
	var st JobStatus
	resp := httpJSON(t, http.MethodGet, nodes["b"].ts.URL+"/v1/jobs/"+created.ID, "", map[string]string{
		"traceparent":  "00-" + traceID + "-00f067aa0ba902b7-01",
		"X-Request-ID": "req-42",
	}, &st)
	if resp.StatusCode != http.StatusOK || st.ID != created.ID {
		t.Fatalf("proxied status: %d %+v", resp.StatusCode, st)
	}
	if got := resp.Header.Get("X-CDT-Proxied-By"); got != "b" {
		t.Fatalf("X-CDT-Proxied-By %q, want b", got)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
		t.Fatalf("request id across the hop: %q", got)
	}
	gotTrace, _, ok := tracing.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || gotTrace.String() != traceID {
		t.Fatalf("trace id across the hop: %q (header %q)", gotTrace, resp.Header.Get("Traceparent"))
	}

	// An advance through the non-owner plays rounds on the owner.
	var adv AdvanceResponse
	resp = httpJSON(t, http.MethodPost, nodes["b"].ts.URL+"/v1/jobs/"+created.ID+"/advance",
		`{"rounds":3}`, nil, &adv)
	if resp.StatusCode != http.StatusOK || len(adv.Played) != 3 {
		t.Fatalf("proxied advance: %d, %d rounds", resp.StatusCode, len(adv.Played))
	}
	if adv.Status.NextRound != 4 || adv.Status.Lease.Owner != "a" {
		t.Fatalf("proxied advance status: %+v", adv.Status)
	}
	if n := nodes["b"].s.met().proxied("/v1/jobs/{id}").Value(); n == 0 {
		t.Fatal("proxied status request not counted")
	}
	if n := nodes["b"].s.met().proxied("/v1/jobs/{id}/advance").Value(); n != 1 {
		t.Fatalf("proxied advance count %v, want 1", n)
	}
	// The owner never counts a proxy.
	if n := nodes["a"].s.met().proxied("/v1/jobs/{id}").Value(); n != 0 {
		t.Fatalf("owner counted %v proxied requests", n)
	}
}

func TestClusterForwardLoopAnswers503WithRetryHint(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	var created JobStatus
	httpJSON(t, http.MethodPost, nodes["a"].ts.URL+"/v1/jobs", clusterJob, nil, &created)

	// A request already forwarded once must not hop again: ownership
	// is in transition, and the client gets told when to come back in
	// BOTH the header and the envelope.
	var er ErrorResponse
	resp := httpJSON(t, http.MethodGet, nodes["b"].ts.URL+"/v1/jobs/"+created.ID, "",
		map[string]string{"X-CDT-Forwarded-By": "a"}, &er)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second hop: %d", resp.StatusCode)
	}
	if er.Error.Code != "ownership_transition" {
		t.Fatalf("code %q", er.Error.Code)
	}
	if er.Error.RetryAfterS <= 0 {
		t.Fatalf("no retry_after_s in the envelope: %+v", er.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header on the 503")
	}
}

// TestClusterFailoverAndFencing is the in-process half of the chaos
// story: the owner becomes unreachable, the peer steals the lease
// after expiry and resumes the job from snapshot + WAL tail, and the
// zombie owner's next write is fenced off and evicts the job.
func TestClusterFailoverAndFencing(t *testing.T) {
	clk := newFakeClock()
	nodes := newTestCluster(t, t.TempDir(), clk, "a", "b")
	a, b := nodes["a"], nodes["b"]

	var created JobStatus
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs", clusterJob, nil, &created)
	var adv AdvanceResponse
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs/"+created.ID+"/advance", `{"rounds":5}`, nil, &adv)
	if adv.Status.NextRound != 6 {
		t.Fatalf("pre-crash cursor: %+v", adv.Status)
	}

	// The owner drops off the network but its lease is still live:
	// requests through b fail over the wire and come back 503 with a
	// hint, NOT as a steal.
	a.ts.Close()
	a.ts = nil
	var er ErrorResponse
	resp := httpJSON(t, http.MethodGet, b.ts.URL+"/v1/jobs/"+created.ID, "", nil, &er)
	if resp.StatusCode != http.StatusServiceUnavailable || er.Error.Code != "owner_unreachable" {
		t.Fatalf("owner down, lease live: %d %+v", resp.StatusCode, er.Error)
	}
	if er.Error.RetryAfterS <= 0 {
		t.Fatalf("no retry hint while failover pends: %+v", er.Error)
	}

	// Lease expires: the next request THROUGH b performs the takeover
	// and serves locally at a higher epoch, resumed round-exact.
	clk.Advance(clusterTTL + leaseGrace + time.Millisecond)
	var st JobStatus
	resp = httpJSON(t, http.MethodGet, b.ts.URL+"/v1/jobs/"+created.ID, "", nil, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover status: %d", resp.StatusCode)
	}
	if st.Lease == nil || st.Lease.Owner != "b" || st.Lease.Epoch != 2 {
		t.Fatalf("takeover lease: %+v", st.Lease)
	}
	if st.NextRound != 6 {
		t.Fatalf("takeover resumed at round %d, want 6", st.NextRound)
	}
	if resp.Header.Get("X-CDT-Proxied-By") != "" {
		t.Fatal("takeover response was proxied")
	}
	if n := b.s.met().leaseTakeovers.Value(); n != 1 {
		t.Fatalf("takeovers counted: %v", n)
	}

	// The zombie still has the job in memory. Its next advance is
	// fenced at the WAL flush, answered 503 lease_lost, and the job
	// is evicted — it never writes a byte over the successor's state.
	rec := httptest.NewRecorder()
	a.s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/v1/jobs/"+created.ID+"/advance", strings.NewReader(`{"rounds":1}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("zombie advance: %d: %s", rec.Code, rec.Body)
	}
	var zer ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &zer); err != nil || zer.Error.Code != "lease_lost" {
		t.Fatalf("zombie advance envelope: %+v err=%v", zer.Error, err)
	}
	if _, ok := a.s.registry().get(created.ID); ok {
		t.Fatal("zombie kept the job after fencing")
	}
	if n := a.s.met().leasesLost.Value(); n != 1 {
		t.Fatalf("lost leases counted: %v", n)
	}

	// b still owns and serves it.
	var after JobStatus
	if resp := httpJSON(t, http.MethodGet, b.ts.URL+"/v1/jobs/"+created.ID, "", nil, &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fence status via successor: %d", resp.StatusCode)
	}
	if after.NextRound != 6 || after.Lease.Epoch != 2 {
		t.Fatalf("successor state after zombie fenced: %+v", after)
	}
}

func TestClusterRenewLoopEvictsStolenJobs(t *testing.T) {
	clk := newFakeClock()
	nodes := newTestCluster(t, t.TempDir(), clk, "a", "b")
	a, b := nodes["a"], nodes["b"]

	var created JobStatus
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs", clusterJob, nil, &created)

	// Healthy renewals: no failures, expiry extended.
	clk.Advance(clusterTTL / 2)
	if n := a.s.RenewOwnedLeases(); n != 0 {
		t.Fatalf("healthy renew failures: %d", n)
	}

	// b steals after expiry (as its lease loop would); a's next renew
	// pass must discover the loss and evict.
	clk.Advance(clusterTTL + leaseGrace + time.Millisecond)
	if _, err := b.ws.AcquireLease(created.ID, "b", clusterTTL); err != nil {
		t.Fatal(err)
	}
	if n := a.s.RenewOwnedLeases(); n != 1 {
		t.Fatalf("renew failures after steal: %d", n)
	}
	if _, ok := a.s.registry().get(created.ID); ok {
		t.Fatal("stolen job not evicted by the renew loop")
	}
	if n := a.s.met().leaseRenewFailures.Value(); n != 1 {
		t.Fatalf("renew failures counted: %v", n)
	}
	if got := a.s.leasesHeld.Load(); got != 0 {
		t.Fatalf("leases held after eviction: %d", got)
	}
}

func TestClusterAdoptOrphansFailsOverWithoutTraffic(t *testing.T) {
	clk := newFakeClock()
	nodes := newTestCluster(t, t.TempDir(), clk, "a", "b")
	a, b := nodes["a"], nodes["b"]

	var created JobStatus
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs", clusterJob, nil, &created)
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs/"+created.ID+"/advance", `{"rounds":4}`, nil, nil)

	// No request ever reaches b for this job; its lease loop still
	// claims it once the owner lapses.
	clk.Advance(clusterTTL + leaseGrace + time.Millisecond)
	if n := b.s.AdoptOrphans(context.Background()); n != 1 {
		t.Fatalf("adopted %d orphans, want 1", n)
	}
	j, ok := b.s.registry().get(created.ID)
	if !ok {
		t.Fatal("orphan not in successor registry")
	}
	if l := j.leaseFor(); l == nil || l.Epoch != 2 {
		t.Fatalf("orphan lease: %+v", l)
	}
	// Idempotent: a second pass adopts nothing.
	if n := b.s.AdoptOrphans(context.Background()); n != 0 {
		t.Fatalf("second adoption pass took %d jobs", n)
	}
}

func TestClusterHealthzReportsTopology(t *testing.T) {
	nodes := newTestCluster(t, t.TempDir(), newFakeClock(), "a", "b")
	httpJSON(t, http.MethodPost, nodes["a"].ts.URL+"/v1/jobs", clusterJob, nil, nil)

	var h Healthz
	httpJSON(t, http.MethodGet, nodes["a"].ts.URL+"/v1/healthz", "", nil, &h)
	if h.Cluster == nil {
		t.Fatal("no cluster block on a clustered broker")
	}
	if h.Cluster.NodeID != "a" || len(h.Cluster.Peers) != 2 || h.Cluster.JobsOwned != 1 {
		t.Fatalf("cluster healthz: %+v", h.Cluster)
	}
	if h.Cluster.LeaseTTLS != clusterTTL.Seconds() {
		t.Fatalf("lease ttl: %v", h.Cluster.LeaseTTLS)
	}
	if h.Cluster.Leases == nil || h.Cluster.Leases.Acquired == 0 {
		t.Fatalf("lease stats: %+v", h.Cluster.Leases)
	}

	// The peer owns nothing and says so.
	var hb Healthz
	httpJSON(t, http.MethodGet, nodes["b"].ts.URL+"/v1/healthz", "", nil, &hb)
	if hb.Cluster.JobsOwned != 0 || hb.Cluster.NodeID != "b" {
		t.Fatalf("peer healthz: %+v", hb.Cluster)
	}
}

// TestClusterBootAdoptionPartitions: after a full-cluster graceful
// shutdown (snapshots saved, leases released), fresh nodes booting
// over the shared dir partition the stored jobs — every job adopted
// by exactly one node.
func TestClusterBootAdoptionPartitions(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	nodes := newTestCluster(t, dir, clk, "a", "b")

	var ids []string
	for _, n := range []*testNode{nodes["a"], nodes["b"]} {
		for i := 0; i < 2; i++ {
			var st JobStatus
			httpJSON(t, http.MethodPost, n.ts.URL+"/v1/jobs", clusterJob, nil, &st)
			ids = append(ids, st.ID)
		}
	}
	for _, n := range nodes {
		if err := n.s.SaveAll(); err != nil {
			t.Fatal(err)
		}
		n.s.ReleaseOwnedLeases()
		n.close()
		n.ts = nil
	}

	fresh := newTestCluster(t, dir, clk, "a", "b")
	for _, n := range fresh {
		if err := n.s.LoadAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		_, onA := fresh["a"].s.registry().get(id)
		_, onB := fresh["b"].s.registry().get(id)
		if onA == onB {
			t.Fatalf("job %s adopted by a=%v b=%v, want exactly one", id, onA, onB)
		}
	}
	held := fresh["a"].s.leasesHeld.Load() + fresh["b"].s.leasesHeld.Load()
	if held != int64(len(ids)) {
		t.Fatalf("leases held across the cluster: %d, want %d", held, len(ids))
	}
}

func TestValidateCluster(t *testing.T) {
	s := New()
	s.Cluster = &Cluster{NodeID: "a", Peers: []Peer{{ID: "a", URL: "http://x"}}}
	if err := s.ValidateCluster(); err == nil {
		t.Fatal("cluster without a lease-capable store validated")
	}
	ws := newWALStore(t)
	s.Store = ws
	if err := s.ValidateCluster(); err != nil {
		t.Fatal(err)
	}
	s.Cluster.NodeID = "zz"
	if err := s.ValidateCluster(); err == nil {
		t.Fatal("node id outside the peer list validated")
	}
	s.Cluster.NodeID = "bad id"
	if err := s.ValidateCluster(); err == nil {
		t.Fatal("invalid node id validated")
	}
	// Single-node: nothing to validate.
	if err := New().ValidateCluster(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodeWireUnchanged guards the compatibility contract: with
// no Cluster, statuses carry no lease block, ids keep the bare job-N
// form, and healthz has no cluster section.
func TestSingleNodeWireUnchanged(t *testing.T) {
	s := New()
	s.Store = newWALStore(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(clusterJob)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["lease"]; ok {
		t.Fatal("single-node status grew a lease block")
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("single-node id %q", st.ID)
	}
	if strings.Contains(rec.Body.String(), `"owner"`) {
		t.Fatal("single-node links grew an owner relation")
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if strings.Contains(rec.Body.String(), `"cluster"`) {
		t.Fatal("single-node healthz grew a cluster block")
	}

	// And the metrics surface carries no lease families.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "cdt_leases_held") ||
		strings.Contains(rec.Body.String(), "cdt_proxied_requests_total") {
		t.Fatal("single-node /metrics grew cluster families")
	}
}

// TestFencedStoreErrorIsPermanent: a lost lease must not burn the
// whole retry budget — the retry loop stops on the first fencing
// rejection.
func TestFencedStoreErrorIsPermanent(t *testing.T) {
	clk := newFakeClock()
	nodes := newTestCluster(t, t.TempDir(), clk, "a", "b")
	a, b := nodes["a"], nodes["b"]
	var created JobStatus
	httpJSON(t, http.MethodPost, a.ts.URL+"/v1/jobs", clusterJob, nil, &created)

	clk.Advance(clusterTTL + leaseGrace + time.Millisecond)
	if _, err := b.ws.AcquireLease(created.ID, "b", clusterTTL); err != nil {
		t.Fatal(err)
	}

	j, _ := a.s.registry().get(created.ID)
	before := a.s.met().retryAttempts.Value()
	err := a.s.saveToStore(context.Background(), created.ID, []byte("{}"), j.leaseFor())
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("fenced save error: %v", err)
	}
	if got := a.s.met().retryAttempts.Value() - before; got != 1 {
		t.Fatalf("fenced save took %v attempts, want 1", got)
	}
}
