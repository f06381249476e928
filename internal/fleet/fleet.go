// Package fleet is the coordination layer that turns hgpartd from one
// process into a horizontally scalable tier. It holds the pieces the
// hgpartcoord coordinator is assembled from, each unit-testable without
// sockets:
//
//   - Ring: a consistent-hash ring routing jobs by netlist fingerprint.
//     The fingerprint + canonical options is already the workers' result
//     cache key, so stable routing gives cache affinity for free, and a
//     membership change moves only the keys adjacent to the change.
//   - Registry: the worker roster with the heartbeat/ejection state
//     machine (active → suspect → ejected on heartbeat silence, rejoin
//     on the next heartbeat) plus one circuit breaker per worker
//     (resilience.BreakerSet) for breaker-style ejection of workers
//     that answer but fail.
//   - HandoffQueue: the coordinator's account of accepted-but-unfinished
//     jobs. When a worker dies, its detached jobs (no live client
//     handler retrying them) are reclaimed exactly once and re-enqueued
//     onto survivors; completions are remembered by fingerprint+options
//     so at-least-once re-enqueueing never runs the same logical job
//     twice.
//   - Backoff: deterministic jittered exponential backoff for retry
//     routing, seeded so a given failure sequence replays identically.
//   - JobTable: the bounded job registry behind GET /jobs/{id}, shared
//     by the worker daemon and the coordinator.
//
// All clocks are injectable (RegistryConfig.Now), all randomness is
// SplitMix64-derived from explicit seeds, and nothing here opens a
// socket — the chaos harness drives the same code paths over HTTP that
// these types' tests drive directly.
package fleet

// fnv1a hashes a string with 64-bit FNV-1a (the same family as the
// netlist fingerprint), giving each worker id a stable base point for
// its virtual nodes.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
