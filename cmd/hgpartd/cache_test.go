package main

// Correctness tests for the fingerprint-keyed result cache: identical
// resubmissions must return the byte-identical body while only the hit
// counter moves; any change to the netlist or to a result-affecting
// option must miss; degraded responses must never be stored; and the
// LRU bound must hold.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

func cacheCounters(t *testing.T, s *server) (hits, misses, size int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var body struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Size   int64 `json:"size"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Cache.Hits, body.Cache.Misses, body.Cache.Size
}

func TestCacheHitReturnsIdenticalBody(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.cacheSize = 8 })
	h := s.handler()

	first := post(t, h, "/partition?seed=3", testNets)
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d: %s", first.Code, first.Body)
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 1 {
		t.Fatalf("after first request: hits=%d misses=%d, want 0/1", hits, misses)
	}

	second := post(t, h, "/partition?seed=3", testNets)
	if second.Code != http.StatusOK {
		t.Fatalf("second = %d: %s", second.Code, second.Body)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("cache hit body differs:\nfirst:  %s\nsecond: %s", first.Body, second.Body)
	}
	if hits, misses, size := cacheCounters(t, s); hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("after resubmission: hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}
}

func TestCacheMissOnMutatedNetlistOrOptions(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.cacheSize = 8 })
	h := s.handler()

	if rec := post(t, h, "/partition?seed=3", testNets); rec.Code != http.StatusOK {
		t.Fatalf("seed run = %d: %s", rec.Code, rec.Body)
	}

	// One extra net: the fingerprint must discriminate.
	mutated := testNets + "net n5 a f\n"
	if rec := post(t, h, "/partition?seed=3", mutated); rec.Code != http.StatusOK {
		t.Fatalf("mutated run = %d: %s", rec.Code, rec.Body)
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 2 {
		t.Fatalf("mutated netlist: hits=%d misses=%d, want 0/2", hits, misses)
	}

	// Same netlist, different result-affecting option: also a miss.
	if rec := post(t, h, "/partition?seed=4", testNets); rec.Code != http.StatusOK {
		t.Fatalf("reseeded run = %d: %s", rec.Code, rec.Body)
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 3 {
		t.Fatalf("different seed: hits=%d misses=%d, want 0/3", hits, misses)
	}
}

func TestCacheKeyCanonicalizesDefaults(t *testing.T) {
	// Spelling out the configured defaults, or a chain through its
	// aliases, must share a cache line with the first spelling; a
	// different chain or start count must not.
	s := testServer(func(c *serverConfig) { c.cacheSize = 8 })
	h := s.handler()
	for i, tc := range []struct {
		query        string
		hits, misses int64
	}{
		{"", 0, 1},
		{"?starts=2&seed=1", 1, 1},
		{"?chain=multilevel,fm,algo1&budget=30s", 2, 1},
		{"?chain=core,fm", 2, 2},
		{"?chain=algo1,%20fm", 3, 2},
		{"?chain=fm,algo1", 3, 3},
		{"?chain=algo1,fm&starts=3", 3, 4},
	} {
		if rec := post(t, h, "/partition"+tc.query, testNets); rec.Code != http.StatusOK {
			t.Fatalf("%q = %d: %s", tc.query, rec.Code, rec.Body)
		}
		if hits, misses, _ := cacheCounters(t, s); hits != tc.hits || misses != tc.misses {
			t.Fatalf("request %d %q: hits=%d misses=%d, want %d/%d", i, tc.query, hits, misses, tc.hits, tc.misses)
		}
	}
}

func TestCacheDisabledByDefaultConfigZero(t *testing.T) {
	s := testServer() // testServer sets cacheSize 0 unless overridden
	h := s.handler()
	for i := 0; i < 2; i++ {
		if rec := post(t, h, "/partition?seed=3", testNets); rec.Code != http.StatusOK {
			t.Fatalf("run %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"cache":false`) {
		t.Fatalf("healthz should report cache:false when disabled: %s", rec.Body)
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := newResultCache(2)
	k := func(i uint64) fleet.JobKey { return fleet.JobKey{Fingerprint: i, Opts: "o"} }
	c.put(k(1), serve.PartitionResponse{JobID: "a"})
	c.put(k(2), serve.PartitionResponse{JobID: "b"})
	if _, ok := c.get(k(1)); !ok { // bump 1 to most recent
		t.Fatal("entry 1 evicted early")
	}
	c.put(k(3), serve.PartitionResponse{JobID: "c"}) // evicts 2, the LRU
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry 2 not evicted at capacity")
	}
	for _, i := range []uint64{1, 3} {
		if _, ok := c.get(k(i)); !ok {
			t.Fatalf("entry %d wrongly evicted", i)
		}
	}
	if snap := c.snapshot(); snap["size"] != 2 {
		t.Fatalf("size = %v, want 2", snap["size"])
	}
}

// TestCacheNeverLeaksAcrossConstraints is the constraint-isolation
// guarantee: inline fixed directives and epsilon/fixed query params do
// not change the hypergraph fingerprint, so the cache key must carry
// the canonical constraint key — a result computed under one balance
// contract must never be served for another.
func TestCacheNeverLeaksAcrossConstraints(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.cacheSize = 8 })
	h := s.handler()

	// Same netlist, three distinct contracts: unconstrained, ε=0.1, ε=0.5.
	for i, q := range []string{"", "&epsilon=0.1", "&epsilon=0.5"} {
		if rec := post(t, h, "/partition?seed=3"+q, testNets); rec.Code != http.StatusOK {
			t.Fatalf("run %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 3 {
		t.Fatalf("distinct epsilons: hits=%d misses=%d, want 0/3", hits, misses)
	}

	// Different fixed sets under the same ε: also distinct lines.
	if rec := post(t, h, "/partition?seed=3&epsilon=0.1&fixed=0:L", testNets); rec.Code != http.StatusOK {
		t.Fatalf("fixed run = %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/partition?seed=3&epsilon=0.1&fixed=0:R", testNets); rec.Code != http.StatusOK {
		t.Fatalf("fixed run = %d: %s", rec.Code, rec.Body)
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 5 {
		t.Fatalf("distinct fixed sets: hits=%d misses=%d, want 0/5", hits, misses)
	}

	// Resubmitting each identical contract must hit its own line.
	for i, q := range []string{"", "&epsilon=0.1", "&epsilon=0.5", "&epsilon=0.1&fixed=0:L", "&epsilon=0.1&fixed=0:R"} {
		if rec := post(t, h, "/partition?seed=3"+q, testNets); rec.Code != http.StatusOK {
			t.Fatalf("rerun %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	if hits, misses, size := cacheCounters(t, s); hits != 5 || misses != 5 || size != 5 {
		t.Fatalf("resubmissions: hits=%d misses=%d size=%d, want 5/5/5", hits, misses, size)
	}
}

// TestCacheDiscriminatesInlineFixedDirectives covers the sharpest
// corner: two netlists whose nets are identical but whose inline fixed
// directives differ hash to the same hypergraph fingerprint, so only
// the constraint component of the key keeps them apart.
func TestCacheDiscriminatesInlineFixedDirectives(t *testing.T) {
	s := testServer(func(c *serverConfig) { c.cacheSize = 8 })
	h := s.handler()

	pinnedL := testNets + "fixed a L\n"
	pinnedR := testNets + "fixed a R\n"
	if rec := post(t, h, "/partition?seed=3", pinnedL); rec.Code != http.StatusOK {
		t.Fatalf("pinned-L = %d: %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/partition?seed=3", pinnedR); rec.Code != http.StatusOK {
		t.Fatalf("pinned-R = %d: %s", rec.Code, rec.Body)
	}
	if hits, misses, _ := cacheCounters(t, s); hits != 0 || misses != 2 {
		t.Fatalf("inline fixed variants: hits=%d misses=%d, want 0/2", hits, misses)
	}
}
