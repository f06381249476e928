package main

// Result cache: POST /partition is a pure function of (netlist,
// effective options) — the engine is deterministic per seed regardless
// of parallelism — so identical resubmissions (CI pipelines re-running
// a flow, retry storms after a timeout) can be answered from memory
// without burning a multi-start run. Keys are serve.Request.Key over
// the daemon's defaults: the FNV-1a hypergraph fingerprint already used
// by crash-safe checkpointing, with a canonical rendering of the
// options that affect the result; entries are bounded by an LRU list. Degraded responses (a fallback tier answered because
// the budget expired) are never cached: a retry deserves the full
// chain. Hits return the originally computed body verbatim — including
// its job_id — and are not re-journaled to the WAL.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"fasthgp/internal/fleet"
	"fasthgp/internal/serve"
)

// resultCache is a mutex-guarded LRU of successful partition responses.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[fleet.JobKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  fleet.JobKey
	resp serve.PartitionResponse
}

// newResultCache returns an LRU bounded to capacity entries, or nil
// (caching disabled) when capacity <= 0.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[fleet.JobKey]*list.Element, capacity),
	}
}

// get returns the cached response for k, bumping it to most recent.
func (c *resultCache) get(k fleet.JobKey) (serve.PartitionResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses.Add(1)
		return serve.PartitionResponse{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).resp, true
}

// put inserts (or refreshes) k's response, evicting the least recently
// used entry past capacity.
func (c *resultCache) put(k fleet.JobKey, resp serve.PartitionResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&cacheEntry{key: k, resp: resp})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// snapshot returns the counters surfaced on /healthz and /stats.
func (c *resultCache) snapshot() map[string]any {
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return map[string]any{
		"capacity": c.cap,
		"size":     size,
		"hits":     c.hits.Load(),
		"misses":   c.misses.Load(),
	}
}
