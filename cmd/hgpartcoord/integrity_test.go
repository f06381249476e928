package main

// End-to-end result-integrity tests: Byzantine answers are never
// delivered, liars are quarantined and readmitted by verified probes,
// hedging beats a slow worker, single-flight collapses duplicates,
// corrupt frames quarantine, a coordinator double-failure re-enqueues
// exactly once, and the scrubber degrades /healthz on WAL rot.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/fleet"
	"fasthgp/internal/resilience"
	"fasthgp/internal/serve"
)

// testCoordQ is testCoord with an explicit quarantine config.
func testCoordQ(now func() time.Time, q fleet.QuarantineConfig) *coord {
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
		Quarantine:   q,
		Now:          now,
	}, io.Discard)
}

// distinctNets returns a netlist whose hypergraph *structure* (not
// just net names) differs per i, so each gets its own fingerprint and
// the ring spreads them across both workers.
func distinctNets(i int) string {
	var b strings.Builder
	b.WriteString(testNets)
	for j := 0; j <= i; j++ {
		fmt.Fprintf(&b, "module x%d\n", j)
	}
	return b.String()
}

// postUntilQuarantined posts distinct netlists until the named worker
// is quarantined, asserting every 200 along the way is oracle-valid.
func postUntilQuarantined(t *testing.T, c *coord, h http.Handler, liar string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		body := distinctNets(i)
		rec, resp := postNetlist(t, h, "", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("netlist %d = %d: %s", i, rec.Code, rec.Body)
		}
		if resp.Worker == liar {
			t.Fatalf("netlist %d delivered by the Byzantine worker %s", i, liar)
		}
		// The delivered answer must itself pass the oracle.
		ct, err := serve.ParseContract("", strings.NewReader(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.Check(resp); err != nil {
			t.Fatalf("netlist %d: delivered answer fails the oracle: %v", i, err)
		}
		if c.registry.Quarantined(liar) {
			return
		}
	}
	t.Fatalf("worker %s never quarantined after 50 requests (invalid=%d quarantines=%d snapshot=%+v)",
		liar, c.invalid.Load(), c.quarantines.Load(), c.registry.Snapshot())
}

// TestByzantineNeverDeliveredAndQuarantined: a worker that lies about
// its cut never gets an answer delivered, accumulates integrity
// strikes, and is quarantined — while the honest worker keeps serving.
func TestByzantineNeverDeliveredAndQuarantined(t *testing.T) {
	c := testCoordQ(nil, fleet.QuarantineConfig{
		Threshold: 3, Window: time.Minute, ReadmitAfter: 2, ProbeInterval: time.Hour,
	})
	h := c.handler()
	liar, honest := newFakeWorker(t, "liar"), newFakeWorker(t, "honest")
	liar.setLie(true)
	register(t, h, "liar", liar.addr())
	register(t, h, "honest", honest.addr())

	postUntilQuarantined(t, c, h, "liar")

	if got := c.invalid.Load(); got < 3 {
		t.Errorf("invalid answers = %d, want >= 3 (quarantine threshold)", got)
	}
	if got := c.quarantines.Load(); got != 1 {
		t.Errorf("quarantine transitions = %d, want 1", got)
	}
	var snapState string
	for _, w := range c.registry.Snapshot() {
		if w.ID == "liar" {
			snapState = w.State
		}
	}
	if snapState != "quarantined" {
		t.Errorf("liar snapshot state = %q, want quarantined", snapState)
	}

	// Quarantined means out of rotation: more traffic never touches it.
	seenBefore := liar.seen()
	for i := 0; i < 5; i++ {
		rec, resp := postNetlist(t, h, "", distinctNets(100+i))
		if rec.Code != http.StatusOK || resp.Worker != "honest" {
			t.Fatalf("post-quarantine request %d = %d via %q", i, rec.Code, resp.Worker)
		}
	}
	if liar.seen() != seenBefore {
		t.Errorf("quarantined worker saw %d more request(s)", liar.seen()-seenBefore)
	}
}

// TestQuarantineProbeReadmission: probes replay the last verified job
// to a quarantined worker; while it still lies the probes fail and it
// stays out, and once fixed a streak of verified probes readmits it.
func TestQuarantineProbeReadmission(t *testing.T) {
	c := testCoordQ(nil, fleet.QuarantineConfig{
		Threshold: 2, Window: time.Minute, ReadmitAfter: 2, ProbeInterval: time.Millisecond,
	})
	h := c.handler()
	liar, honest := newFakeWorker(t, "liar"), newFakeWorker(t, "honest")
	liar.setLie(true)
	register(t, h, "liar", liar.addr())
	register(t, h, "honest", honest.addr())

	postUntilQuarantined(t, c, h, "liar")
	if c.probeMat.Load() == nil {
		t.Fatal("no probe material despite verified deliveries")
	}

	// Still lying: probes fire but never readmit.
	for i := 0; i < 3; i++ {
		c.sweep()
		time.Sleep(5 * time.Millisecond)
	}
	if c.probes.Load() == 0 {
		t.Fatal("no probes fired at the quarantined worker")
	}
	if !c.registry.Quarantined("liar") {
		t.Fatal("still-lying worker readmitted")
	}

	// Fixed: a streak of verified probes lifts the quarantine.
	liar.setLie(false)
	deadline := time.Now().Add(5 * time.Second)
	for c.registry.Quarantined("liar") {
		if time.Now().After(deadline) {
			t.Fatalf("fixed worker never readmitted (probes=%d)", c.probes.Load())
		}
		c.sweep()
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.readmitted.Load(); got != 1 {
		t.Errorf("readmissions = %d, want 1", got)
	}
	if !c.registry.Allow("liar") {
		t.Error("readmitted worker still unroutable")
	}
}

// TestHedgedDispatchBeatsSlowWorker: with hedging on, a request whose
// primary has gone slow is answered by the failover worker while the
// primary still holds it unanswered.
func TestHedgedDispatchBeatsSlowWorker(t *testing.T) {
	c := testCoord(nil)
	c.cfg.hedgeDelay = 20 * time.Millisecond
	// No budget runs out while the test waits, so only the hedge can
	// end a request the primary holds.
	c.cfg.reqTimeout = time.Hour
	h := c.handler()
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	register(t, h, "w1", w1.addr())
	register(t, h, "w2", w2.addr())

	// Discover the primary for this netlist, then slow it down.
	rec, resp := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup = %d: %s", rec.Code, rec.Body)
	}
	primary := resp.Worker
	other := "w1"
	slow := w1
	if primary == "w1" {
		other, slow = "w2", w1
	} else {
		slow = w2
	}
	release := slow.holdAnswers(t)

	done := make(chan struct{})
	go func() {
		defer close(done)
		rec, resp = postNetlist(t, h, "", testNets)
	}()
	// The answer must arrive while the slow worker still holds the
	// request; ten seconds is a deadline, not a latency bound.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hedged request still waiting on the held primary after 10s")
	}
	release()
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request = %d: %s", rec.Code, rec.Body)
	}
	if resp.Worker != other {
		t.Errorf("hedged request answered by %q, want failover %q", resp.Worker, other)
	}
	if c.hedges.Load() == 0 {
		t.Error("no hedge fired")
	}
	if c.hedgeWins.Load() == 0 {
		t.Error("hedge never won despite a slow primary")
	}
}

// TestSingleFlightCollapse: concurrent identical requests share one
// worker computation; every client still gets the verified answer.
func TestSingleFlightCollapse(t *testing.T) {
	c := testCoord(nil)
	h := c.handler()
	w := newFakeWorker(t, "w1")
	release := w.holdAnswers(t)
	register(t, h, "w1", w.addr())

	type result struct {
		code int
		cut  int
	}
	results := make(chan result, 5)
	post := func() {
		rec, resp := postNetlist(t, h, "", testNets)
		results <- result{rec.Code, resp.Cut}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); post() }() // the leader
	// The leader owns the flight once its forward reaches the worker.
	waitUntil(t, "the leader's forward to reach the worker", func() bool { return w.seen() == 1 })
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); post() }()
	}
	// Every follower joins the flight while the worker still holds the
	// leader's request; only then may the worker answer.
	waitUntil(t, "four followers to join the flight", func() bool { return c.collapsed.Load() == 4 })
	release()
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK || r.cut != 2 {
			t.Errorf("collapsed request = (%d, cut %d), want (200, 2)", r.code, r.cut)
		}
	}
	if got := w.seen(); got != 1 {
		t.Errorf("worker saw %d request(s), want 1 (single-flight)", got)
	}
	if got := c.collapsed.Load(); got != 4 {
		t.Errorf("collapsed = %d, want 4", got)
	}
}

// TestCorruptFramesQuarantine: wire corruption on every forward makes
// each 200 unparseable; the coordinator never delivers garbage, charges
// integrity strikes, and quarantines the only worker rather than serve
// a corrupt answer.
func TestCorruptFramesQuarantine(t *testing.T) {
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointFleetForward, Index: faultinject.AnyIndex, Kind: faultinject.KindCorrupt},
	}})()
	c := testCoordQ(nil, fleet.QuarantineConfig{
		Threshold: 3, Window: time.Minute, ReadmitAfter: 2, ProbeInterval: time.Hour,
	})
	h := c.handler()
	w := newFakeWorker(t, "w1")
	register(t, h, "w1", w.addr())

	rec, _ := postNetlist(t, h, "", testNets)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 (no verifiable answer exists)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "garbled") {
		t.Errorf("error does not name the corrupt frame: %s", rec.Body)
	}
	if got := c.ok200.Load(); got != 0 {
		t.Errorf("delivered %d corrupt answer(s), want 0", got)
	}
	if got := c.invalid.Load(); got < 3 {
		t.Errorf("integrity strikes = %d, want >= 3", got)
	}
	if !c.registry.Quarantined("w1") {
		t.Error("worker serving corrupt frames not quarantined")
	}
}

// TestDoubleFailureHandoffExactlyOnce: a coordinator killed after
// accepting a job, restarted, killed again mid-reclaim (no workers ever
// came), and restarted once more still holds exactly one pending copy —
// and completes it exactly once when a worker finally registers.
func TestDoubleFailureHandoffExactlyOnce(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")

	// Life 1: accept, journal, crash before any outcome.
	c1 := testCoord(nil)
	if _, err := c1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if err := c1.WAL.Append(serve.Record{Type: "accepted", JobID: "j3",
		Netlist: testNets, Fingerprint: 3}); err != nil {
		t.Fatal(err)
	}
	c1.WAL.Close()

	// Life 2: replay and re-enqueue, but no worker ever registers; the
	// coordinator "dies" again (drain) mid-reclaim.
	c2 := testCoord(nil)
	pending, err := c2.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("life 2 pending = %d, want 1", len(pending))
	}
	c2.requeue(pending)
	time.Sleep(30 * time.Millisecond) // the detached runner spins on an empty fleet
	c2.StartDraining()
	time.Sleep(100 * time.Millisecond) // let the runner observe drain and park
	c2.WAL.Close()

	// Life 3: the job is still pending exactly once — the aborted
	// reclaim journaled no outcome and no duplicate accepted record.
	if n := countRecords(t, walPath, "accepted", "j3"); n != 1 {
		t.Fatalf("life 3 sees %d accepted record(s) for j3, want 1", n)
	}
	c3 := testCoord(nil)
	pending, err = c3.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].JobID != "j3" {
		t.Fatalf("life 3 pending = %+v, want exactly [j3]", pending)
	}
	c3.requeue(pending)
	h := c3.handler()
	fw := newFakeWorker(t, "w1")
	register(t, h, "w1", fw.addr())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := c3.Jobs.Get("j3"); ok && j.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			j, _ := c3.Jobs.Get("j3")
			t.Fatalf("job never completed in life 3: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := fw.seen(); got != 1 {
		t.Errorf("worker ran the job %d time(s), want exactly 1", got)
	}
	time.Sleep(20 * time.Millisecond) // done record is fsynced right after the status flip
	c3.WAL.Close()

	// Life 4: nothing pending; the ledger holds the single outcome.
	c4 := testCoord(nil)
	pending, err = c4.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c4.WAL.Close()
	if len(pending) != 0 {
		t.Fatalf("life 4 pending = %d, want 0", len(pending))
	}
	if n := countRecords(t, walPath, "done", "j3"); n != 1 {
		t.Errorf("life 4 sees %d done record(s) for j3, want 1", n)
	}
}

// countRecords reads the WAL at path and counts the records of type
// typ for job id.
func countRecords(t *testing.T, path, typ, id string) int {
	t.Helper()
	j, frames, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	n := 0
	for _, raw := range frames[1:] {
		var rec serve.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == typ && rec.JobID == id {
			n++
		}
	}
	return n
}

// TestScrubDegradesHealthOnRot: the scrubber reports a clean WAL as
// healthy, and flags on-disk rot appearing after open — degrading
// /healthz and surfacing the report on /stats.
func TestScrubDegradesHealthOnRot(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	c := testCoord(nil)
	if _, err := c.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	defer c.WAL.Close()
	if err := c.WAL.Append(serve.Record{Type: "accepted", JobID: "j1", Netlist: testNets, Fingerprint: 1}); err != nil {
		t.Fatal(err)
	}
	h := c.handler()

	healthz := func() map[string]any {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return m
	}

	c.WAL.Scrub()
	if m := healthz(); m["status"] != "ok" {
		t.Fatalf("clean WAL healthz = %v (reasons %v)", m["status"], m["degraded_reasons"])
	}

	// Rot lands after open: a torn tail the next crash-replay would hit.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c.WAL.Scrub()
	m := healthz()
	if m["status"] != "degraded" {
		t.Fatalf("rotted WAL healthz = %v, want degraded", m["status"])
	}
	found := false
	if reasons, ok := m["degraded_reasons"].([]any); ok {
		for _, r := range reasons {
			if s, _ := r.(string); strings.Contains(s, "wal scrub") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no wal-scrub degraded reason: %v", m["degraded_reasons"])
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if !strings.Contains(rec.Body.String(), "wal_scrub") {
		t.Errorf("stats missing wal_scrub: %s", rec.Body)
	}
}
