package main

// Tests for the load-derived Retry-After hints, the byzantine fault
// mode, and the WAL scrubber's /healthz wiring.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/serve"
)

// TestRetryAfterHintBounds: hints stay at or above the nominal floor,
// within the jitter ceiling, and actually vary — rejected clients are
// decorrelated, not herded onto one retry instant.
func TestRetryAfterHintBounds(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.queue = 4 })
	check := func(nominal, maxSpread int) {
		t.Helper()
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			v, err := strconv.Atoi(s.retryAfterHint(nominal))
			if err != nil {
				t.Fatalf("non-numeric hint: %v", err)
			}
			if v < nominal || v > nominal+maxSpread {
				t.Fatalf("hint %d outside [%d, %d]", v, nominal, nominal+maxSpread)
			}
			seen[v] = true
		}
		if len(seen) < 2 {
			t.Errorf("200 hints all identical (%v): no jitter", seen)
		}
	}
	check(1, 1) // empty queue: spread 1
	check(2, 1)

	// A saturated queue widens the spread.
	for i := 0; i < 4; i++ {
		s.sem <- struct{}{}
	}
	check(1, 4)
	check(2, 4)
}

// TestByzantineModeLiesOnlyOnWire: a corrupt rule on hgpartd.request
// makes the daemon lie about its cut in the HTTP response, while the
// job table and the result cache keep the honest answer — the exact
// failure only coordinator-side verification can catch.
func TestByzantineModeLiesOnlyOnWire(t *testing.T) {
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointServeRequest, Index: 0, Kind: faultinject.KindCorrupt},
	}})()
	s := testServer(func(c *serverConfig) { c.cacheSize = 16 })
	h := s.handler()

	rec := post(t, h, "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var lied serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lied); err != nil {
		t.Fatal(err)
	}

	// Same request again: index 1 has no rule, and the answer comes from
	// the cache — which must hold the honest value, not the lie.
	rec = post(t, h, "/partition?seed=3", testNets)
	if rec.Code != http.StatusOK {
		t.Fatalf("second status = %d: %s", rec.Code, rec.Body)
	}
	var honest serve.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &honest); err != nil {
		t.Fatal(err)
	}
	if lied.Cut != honest.Cut+1 {
		t.Errorf("lied cut = %d, honest = %d, want lie = honest+1", lied.Cut, honest.Cut)
	}
	// The job table journaled the honest outcome.
	if j, ok := s.Jobs.Get(lied.JobID); !ok || j.Cut != honest.Cut {
		t.Errorf("job table cut = %+v, want honest %d", j, honest.Cut)
	}
}

// TestWALScrubDegradesHealthz: a clean WAL scrubs healthy; rot landing
// after open flips /healthz to degraded with a wal-scrub reason and
// surfaces the report on /stats.
func TestWALScrubDegradesHealthz(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "hgpartd.wal")
	s := testServer()
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	defer s.WAL.Close()
	if err := s.WAL.Append(serve.Record{Type: "accepted", JobID: "j1", Netlist: testNets}); err != nil {
		t.Fatal(err)
	}
	h := s.handler()

	healthz := func() map[string]any {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return m
	}

	s.WAL.Scrub()
	if m := healthz(); m["status"] != "ok" {
		t.Fatalf("clean WAL healthz = %v (reasons %v)", m["status"], m["degraded_reasons"])
	}

	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xBA, 0xD1}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s.WAL.Scrub()
	m := healthz()
	if m["status"] != "degraded" {
		t.Fatalf("rotted WAL healthz = %v, want degraded", m["status"])
	}
	found := false
	if reasons, ok := m["degraded_reasons"].([]any); ok {
		for _, r := range reasons {
			if rs, _ := r.(string); strings.Contains(rs, "wal scrub") {
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
