package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fasthgp"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
	"fasthgp/internal/resilience"
	"fasthgp/internal/serve"
)

const testNets = `module a
module b
module c
module d
module e
module f
net n1 a b c
net n2 c d
net n3 d e f
net n4 b e
`

// testCoord builds a coordinator with fast retry timing and an
// injectable registry clock.
func testCoord(now func() time.Time) *coord {
	cfg := coordConfig{
		maxBody:      1 << 20,
		reqTimeout:   5 * time.Second,
		retries:      6,
		backoff:      fleet.BackoffConfig{Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 1},
		heartbeatTTL: time.Second,
		replicas:     16,
		drainTimeout: time.Second,
	}
	return newCoord(cfg, fleet.RegistryConfig{
		HeartbeatTTL: time.Second,
		EjectAfter:   2,
		Breakers:     resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Now:          now,
	}, io.Discard)
}

// fakeWorker is an httptest stand-in for hgpartd: it answers
// /partition honestly by construction — it parses the posted netlist
// and returns the half-split assignment with its true recomputed cut,
// so its answers pass the coordinator's oracle for any request. The
// lie knob turns it Byzantine (claimed cut off by one); the hold knob
// keeps it from answering until the test releases it (for hedging and
// single-flight tests).
type fakeWorker struct {
	id       string
	srv      *httptest.Server
	mu       sync.Mutex
	requests int
	lastHdr  string // last X-Request-Deadline seen
	lie      bool
	hold     chan struct{} // non-nil: wait for it to close before answering
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{id: id}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.requests++
		f.lastHdr = r.Header.Get("X-Request-Deadline")
		lie, hold := f.lie, f.hold
		f.mu.Unlock()
		if hold != nil {
			select {
			case <-hold:
			case <-r.Context().Done():
				return
			}
		}
		h, _, err := fasthgp.ReadNetlistFixed(bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := h.NumVertices()
		p := fasthgp.NewBipartition(n)
		assign := make([]int, n)
		for v := 0; v < n; v++ {
			if v < n/2 {
				p.Assign(v, fasthgp.Left)
			} else {
				p.Assign(v, fasthgp.Right)
				assign[v] = 1
			}
		}
		cut := fasthgp.CutSize(h, p)
		if lie {
			cut ^= 1 // always off by one: the oracle must catch it
		}
		json.NewEncoder(w).Encode(serve.PartitionResponse{
			JobID: "wj-" + f.id, Modules: n, Nets: h.NumEdges(), Cut: cut,
			TierName: "fm", Assignment: assign, WallMS: 1,
		})
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeWorker) seen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

func (f *fakeWorker) setLie(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lie = v
}

// holdAnswers makes the worker hold every /partition request it gets
// from now on until release is called or the request is canceled.
// Release is idempotent and also runs at test cleanup, before the
// server closes.
func (f *fakeWorker) holdAnswers(t *testing.T) (release func()) {
	hold := make(chan struct{})
	f.mu.Lock()
	f.hold = hold
	f.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return release
}

// waitUntil polls cond until it holds, failing the test if it still
// does not after five seconds. The five seconds are a deadline for
// something that must happen, not a bound on how fast it happens.
func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// register announces a worker through the coordinator's real endpoint.
func register(t *testing.T, h http.Handler, id, addr string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"addr":%q}`, id, addr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/register", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register %s = %d: %s", id, rec.Code, rec.Body)
	}
}

func beat(h http.Handler, id string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/heartbeat", strings.NewReader(fmt.Sprintf(`{"id":%q}`, id))))
	return rec.Code
}

func postNetlist(t *testing.T, h http.Handler, query, body string) (*httptest.ResponseRecorder, serve.PartitionResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partition"+query, strings.NewReader(body)))
	var resp serve.PartitionResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad 200 body: %v: %s", err, rec.Body)
		}
	}
	return rec, resp
}

// TestRouteAffinity: identical netlists route to the same worker every
// time (the cache-affinity property), and the response carries the
// coordinator's job id plus the worker that ran it.
func TestRouteAffinity(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	register(t, h, "w1", w1.addr())
	register(t, h, "w2", w2.addr())

	var winner string
	for i := 0; i < 5; i++ {
		rec, resp := postNetlist(t, h, "", testNets)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, rec.Code, rec.Body)
		}
		if resp.Worker != "w1" && resp.Worker != "w2" {
			t.Fatalf("worker = %q", resp.Worker)
		}
		if winner == "" {
			winner = resp.Worker
		} else if resp.Worker != winner {
			t.Fatalf("request %d routed to %s, earlier ones to %s", i, resp.Worker, winner)
		}
		if resp.JobID == "wj1" || resp.JobID == "" {
			t.Fatalf("job_id = %q, want a coordinator id", resp.JobID)
		}
	}
	if w1.seen()+w2.seen() != 5 {
		t.Errorf("workers saw %d+%d requests, want 5 total", w1.seen(), w2.seen())
	}
	if w1.seen() != 0 && w2.seen() != 0 {
		t.Errorf("affinity broken: both workers served (%d / %d)", w1.seen(), w2.seen())
	}
}

// TestFailoverToSurvivor: with one worker's address dead (connection
// refused), every request still answers 200 via the survivor.
func TestFailoverToSurvivor(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	live := newFakeWorker(t, "live")
	// A dead address: bind a listener, grab its port, close it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	register(t, h, "live", live.addr())
	register(t, h, "dead", deadAddr)

	// Several structurally distinct netlists so both ring primaries occur.
	for i := 0; i < 8; i++ {
		rec, resp := postNetlist(t, h, "", distinctNets(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("netlist %d = %d: %s", i, rec.Code, rec.Body)
		}
		if resp.Worker != "live" {
			t.Fatalf("netlist %d answered by %q", i, resp.Worker)
		}
	}
	// The dead worker's breaker tripped (threshold 2) along the way.
	snap := c.registry.Snapshot()
	for _, w := range snap {
		if w.ID == "dead" && w.Breaker != "open" {
			t.Errorf("dead worker breaker = %s, want open", w.Breaker)
		}
	}
}

// TestHeartbeatEjectionAndRejoin drives the liveness state machine
// end to end with an injected clock: silence ejects a worker from the
// ring and reclaims its detached jobs onto the survivor; a later
// heartbeat rejoins it without re-registration.
func TestHeartbeatEjectionAndRejoin(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := testCoord(clock)
	h := c.handler()
	w2 := newFakeWorker(t, "w2")
	register(t, h, "w1", "127.0.0.1:1") // never answers; only liveness matters here
	register(t, h, "w2", w2.addr())

	// A detached job assigned to w1 — as if recovered from the WAL.
	q, _ := url.ParseQuery("")
	job := fleet.Job{
		ID:       "j99",
		Key:      fleet.JobKey{Fingerprint: 42, Opts: canonicalOpts(q)},
		Netlist:  testNets,
		Worker:   "w1",
		Detached: true,
	}
	c.Jobs.Restore(fleet.JobInfo{ID: "j99", Status: "requeued", Requeued: true})
	c.handoff.Admit(job)

	// w2 keeps beating; w1 goes silent past TTL*EjectAfter = 2s.
	advance(1500 * time.Millisecond)
	if code := beat(h, "w2"); code != http.StatusNoContent {
		t.Fatalf("w2 beat = %d", code)
	}
	advance(1500 * time.Millisecond)
	c.sweep()

	if st, _ := c.registry.State("w1"); st != fleet.WorkerEjected {
		t.Fatalf("w1 state = %v, want ejected", st)
	}
	if c.ring.Has("w1") {
		t.Error("ejected worker still on the ring")
	}
	if !c.ring.Has("w2") {
		t.Error("survivor fell off the ring")
	}

	// The reclaimed job must complete on the survivor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := c.Jobs.Get("j99"); ok && j.Status == "done" {
			if j.Worker != "w2" {
				t.Fatalf("reclaimed job ran on %q, want w2", j.Worker)
			}
			break
		}
		if time.Now().After(deadline) {
			j, _ := c.Jobs.Get("j99")
			t.Fatalf("reclaimed job never completed: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A heartbeat from the ejected worker rejoins it, no re-register.
	if code := beat(h, "w1"); code != http.StatusNoContent {
		t.Fatalf("rejoin beat = %d", code)
	}
	if st, _ := c.registry.State("w1"); st != fleet.WorkerActive {
		t.Errorf("w1 state after rejoin = %v, want active", st)
	}
	if !c.ring.Has("w1") {
		t.Error("rejoined worker not back on the ring")
	}
	// An unknown worker's beat answers 404: the re-register signal.
	if code := beat(h, "ghost"); code != http.StatusNotFound {
		t.Errorf("unknown worker beat = %d, want 404", code)
	}
}

// TestDeadlinePropagation: the forwarded request carries an
// X-Request-Deadline within the coordinator's request budget.
func TestDeadlinePropagation(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())
	before := time.Now()
	rec, _ := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	w.mu.Lock()
	hdr := w.lastHdr
	w.mu.Unlock()
	if hdr == "" {
		t.Fatal("no X-Request-Deadline forwarded")
	}
	ms, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil {
		t.Fatalf("bad deadline header %q", hdr)
	}
	d := time.UnixMilli(ms)
	if d.Before(before) || d.After(before.Add(c.cfg.reqTimeout+time.Second)) {
		t.Errorf("deadline %v outside [now, now+reqTimeout]", d)
	}
}

// TestInjectedDropRetries: a drop rule on the first forward makes the
// attempt fail without sending; the retry succeeds and the client
// never sees the fault.
func TestInjectedDropRetries(t *testing.T) {
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointFleetForward, Index: 0, Kind: faultinject.KindDrop},
	}})()
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())
	rec, resp := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if resp.Worker != "w1" || resp.Cut != 2 {
		t.Errorf("resp = %+v", resp)
	}
	if got := c.fwdCounter.Load(); got < 2 {
		t.Errorf("forward attempts = %d, want >= 2 (drop + retry)", got)
	}
}

// TestInjectedPartialResponseRetries: a partial rule truncates the
// worker's reply mid-read; the coordinator treats it as transport
// failure and retries to success.
func TestInjectedPartialResponseRetries(t *testing.T) {
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointFleetForward, Index: 0, Kind: faultinject.KindPartial},
	}})()
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())
	rec, resp := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if resp.Cut != 2 {
		t.Errorf("cut = %d after partial-response retry", resp.Cut)
	}
}

// TestBadNetlistIsPermanent: garbage never reaches a worker (the
// coordinator fingerprints first) and is a 400, not a retry storm.
func TestBadNetlistIsPermanent(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())
	rec, _ := postNetlist(t, h, "", "module a\nfrobnicate a b\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body)
	}
	if w.seen() != 0 {
		t.Errorf("bad netlist reached a worker %d time(s)", w.seen())
	}
}

// TestWALRecoveryReenqueues: a coordinator killed after accepting a
// job replays it at boot as a detached handoff and completes it once a
// worker registers — zero dropped accepted jobs across a restart.
func TestWALRecoveryReenqueues(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")

	// First life: accept a job, journal it, "crash" before any outcome.
	first := testCoord(nil)
	if _, err := first.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if err := first.WAL.Append(serve.Record{Type: "accepted", JobID: "j7",
		Netlist: testNets, Fingerprint: 7, Opts: "starts=2"}); err != nil {
		t.Fatal(err)
	}
	first.WAL.Close()

	// Second life: replay, then register a worker; the detached runner
	// must finish the job on its own.
	c := testCoord(nil)
	pending, err := c.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c.WAL.Close()
	if len(pending) != 1 || pending[0].JobID != "j7" || pending[0].Fingerprint != 7 {
		t.Fatalf("pending = %+v, want the interrupted j7", pending)
	}
	c.requeue(pending)
	h := c.handler()
	fw := newFakeWorker(t, "w1")
	register(t, h, "w1", fw.addr())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := c.Jobs.Get("j7"); ok && j.Status == "done" {
			if !j.Requeued {
				t.Error("recovered job not marked requeued")
			}
			break
		}
		if time.Now().After(deadline) {
			j, _ := c.Jobs.Get("j7")
			t.Fatalf("recovered job never completed: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New ids continue after the dead process's.
	if id := c.Jobs.Create(); fleet.JobSeq(id) <= 7 {
		t.Errorf("new job id %s does not continue past replayed j7", id)
	}
}

// TestDetachedDuplicateDeduped: a detached re-enqueue whose key
// already completed is answered from completion memory — the
// at-least-once duplicate runs zero times.
func TestDetachedDuplicateDeduped(t *testing.T) {
	c := testCoord(nil)
	key := fleet.JobKey{Fingerprint: 42, Opts: "starts=2"}
	c.handoff.Admit(fleet.Job{ID: "j1", Key: key})
	c.handoff.Complete("j1", fleet.Done{Cut: 9, TierName: "fm", Worker: "w1"})

	// No workers registered: completing requires memory, not a forward.
	c.requeue([]serve.Record{{Type: "accepted", JobID: "j2",
		Fingerprint: key.Fingerprint, Opts: key.Opts, Netlist: testNets}})

	j, ok := c.Jobs.Get("j2")
	if !ok || j.Status != "done" || j.Cut != 9 || j.Worker != "w1" {
		t.Fatalf("duplicate not served from memory: %+v", j)
	}
	if stats := c.handoff.Stats(); stats["deduped"] != 1 {
		t.Errorf("deduped = %d, want 1", stats["deduped"])
	}
}

// TestCoordinatorDrain: during drain, new partition requests bounce
// with 503 + Retry-After.
func TestCoordinatorDrain(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())
	c.StartDraining()
	rec, _ := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("no Retry-After during drain")
	}
	if w.seen() != 0 {
		t.Error("draining coordinator forwarded a request")
	}
}

// TestDeregisterReclaims: a graceful deregister reroutes the worker's
// detached jobs immediately.
func TestDeregisterReclaims(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	register(t, h, "w1", w1.addr())
	register(t, h, "w2", w2.addr())

	c.Jobs.Restore(fleet.JobInfo{ID: "j5", Status: "requeued", Requeued: true})
	c.handoff.Admit(fleet.Job{ID: "j5", Key: fleet.JobKey{Fingerprint: 5}, Netlist: testNets, Worker: "w1", Detached: true})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/deregister", strings.NewReader(`{"id":"w1"}`)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("deregister = %d", rec.Code)
	}
	if c.ring.Has("w1") || c.registry.Len() != 1 {
		t.Error("deregistered worker still routable")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := c.Jobs.Get("j5"); ok && j.Status == "done" {
			if j.Worker != "w2" {
				t.Fatalf("reclaimed job ran on %q, want w2", j.Worker)
			}
			return
		}
		if time.Now().After(deadline) {
			j, _ := c.Jobs.Get("j5")
			t.Fatalf("job not rerouted after deregister: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
