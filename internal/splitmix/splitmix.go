// Package splitmix holds the SplitMix64 output mixer (Steele–Lea–Flood,
// the stream-splitting generator of JDK 8), the one source of derived
// randomness in the repo: per-start engine seeds, portfolio attempt
// seeds, fault-injection jitter, fleet backoff jitter and ring
// placement, the daemons' Retry-After jitter, and the load generator's
// request mix. It is a leaf package so that engine, resilience and
// faultinject, which import one another, can all share it.
package splitmix

// Mix64 is the SplitMix64 output mixer. A single application
// decorrelates consecutive integers into statistically independent
// 64-bit values, so seed ⊕ Mix64(i) is an independent seed stream per
// index i. It is a bijection and small enough to inline.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
