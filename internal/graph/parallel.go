package graph

// Intra-start parallel double-BFS.
//
// The multi-start engine saturates as soon as a single start dominates
// the wall clock — exactly the regime the paper's O(n²) construction
// story hits first as instances grow. This file parallelizes the double
// BFS *inside* one start while preserving the library's headline
// guarantee: parallel output is bit-for-bit identical to serial.
//
// The scheme is frontier chunking with a serial-order merge. Each BFS
// level of one side splits its frontier into contiguous worker chunks.
// Workers scan their chunk's adjacency read-only — nobody writes the
// side labeling during the scan, so there is no synchronization beyond
// the per-level WaitGroup — and collect every neighbor that was still
// unclaimed at level start into a worker-local candidate list. A single
// merge pass then walks the candidate lists in chunk order, claiming
// first occurrences and dropping duplicates.
//
// Determinism argument: chunks are contiguous frontier slices, and
// every worker visits its chunk's vertices (and each vertex's sorted
// neighbors) in order, so the concatenation of candidate lists in chunk
// order enumerates exactly the (frontier position, neighbor position)
// pairs the serial loop visits, in the serial order. The serial loop
// skips a neighbor when an earlier pair of the same level already
// claimed it; the merge skips exactly those same later occurrences. The
// claim order — and therefore every side label, every tie-break, and
// the next frontier's contents and order — is identical to
// DoubleBFSSidesInto on every input, for every worker count and every
// chunk boundary. The differential and fuzz suites enforce this.

import "sync"

// minParallelFrontier is the frontier size below which a level expands
// serially: chunking a tiny frontier costs more in goroutine handoff
// than the scan itself. Serial levels are trivially order-identical, so
// the threshold affects wall time only, never the labeling.
const minParallelFrontier = 256

// minChunk is the smallest frontier slice worth handing to a worker.
const minChunk = 64

// ParallelBFSStats reports how a parallel double BFS actually executed.
// All fields are pure functions of (graph, u, v, workers) — chunk
// boundaries are deterministic — so the perf harness can bless them.
type ParallelBFSStats struct {
	// Levels is the number of one-side level expansions performed
	// (both sides counted, empty frontiers included while the other
	// side is still expanding).
	Levels int
	// ParallelLevels is how many of them went through the chunked path.
	ParallelLevels int
	// ChunksMerged is the total number of worker chunks merged across
	// all parallel levels.
	ChunksMerged int
	// Candidates is the total number of discovered-vertex candidates
	// merged (duplicates included) — the serial claim-loop length.
	Candidates int
	// MaxChunkCandidates is the largest single chunk candidate list —
	// against Candidates/ChunksMerged it measures shard imbalance.
	MaxChunkCandidates int
	// CriticalPath accumulates, per parallel level, the largest chunk's
	// candidate count (the level's span under perfect scheduling) and,
	// for serial levels, the whole level's count. Candidates /
	// CriticalPath is the work-model speedup bound of the scan phase.
	CriticalPath int
}

// pbfsBuffers holds the worker-local candidate lists of one parallel
// double BFS. Pooled so steady-state multi-start runs do not allocate
// them per call.
type pbfsBuffers struct {
	cand [][]int
}

var pbfsPool = sync.Pool{New: func() any { return new(pbfsBuffers) }}

// DoubleBFSSidesParallel is DoubleBFSSides computed with the given
// number of workers. The labeling is bit-for-bit identical to the
// serial DoubleBFSSides for every input and worker count.
func (g *Graph) DoubleBFSSidesParallel(u, v, workers int) []int {
	n := g.NumVertices()
	return g.DoubleBFSSidesParallelInto(u, v, workers,
		make([]int, n), make([]int, 0, n), make([]int, 0, n), make([]int, 0, n), nil)
}

// DoubleBFSSidesParallelInto is DoubleBFSSidesParallel writing into
// caller-provided buffers, mirroring DoubleBFSSidesInto (side must have
// length NumVertices; f0, f1, next are frontier buffers). stats, when
// non-nil, receives the execution counters. workers < 1 means 1; one
// worker, or a graph held as bitset rows, dispatches straight to the
// serial kernel (leaving stats zero).
func (g *Graph) DoubleBFSSidesParallelInto(u, v, workers int, side, f0, f1, next []int, stats *ParallelBFSStats) []int {
	if stats != nil {
		*stats = ParallelBFSStats{}
	}
	if workers <= 1 || g.bitset {
		return g.DoubleBFSSidesInto(u, v, side, f0, f1, next)
	}
	n := g.NumVertices()
	side = side[:n]
	for i := range side {
		side[i] = Unreached
	}
	if n == 0 {
		return side
	}
	frontiers := [2][]int{append(f0[:0], u), append(f1[:0], v)}
	side[u] = 0
	if v != u {
		side[v] = 1
	}
	next = next[:0]

	buf := pbfsPool.Get().(*pbfsBuffers)
	for len(buf.cand) < workers {
		buf.cand = append(buf.cand, nil)
	}
	defer pbfsPool.Put(buf)

	var wg sync.WaitGroup
	for len(frontiers[0]) > 0 || len(frontiers[1]) > 0 {
		for s := 0; s < 2; s++ {
			fr := frontiers[s]
			next = next[:0]
			if stats != nil {
				stats.Levels++
			}
			if len(fr) < minParallelFrontier {
				// Serial level: identical to the DoubleBFSSidesInto body.
				claimed := 0
				for _, x := range fr {
					if side[x] != s {
						continue
					}
					for _, w := range g.Neighbors(x) {
						if side[w] == Unreached {
							side[w] = s
							next = append(next, w)
							claimed++
						}
					}
				}
				if stats != nil {
					stats.Candidates += claimed
					stats.CriticalPath += claimed
				}
				frontiers[s] = append(frontiers[s][:0], next...)
				continue
			}

			// Chunked scan: workers read the pre-level labeling only.
			chunks := numChunks(len(fr), workers)
			wg.Add(chunks)
			for c := 0; c < chunks; c++ {
				lo, hi := chunkBounds(len(fr), chunks, c)
				cand := buf.cand[c][:0]
				go func(c int, part []int, cand []int) {
					defer wg.Done()
					for _, x := range part {
						if side[x] != s {
							continue
						}
						for _, w := range g.Neighbors(x) {
							if side[w] == Unreached {
								cand = append(cand, w)
							}
						}
					}
					buf.cand[c] = cand
				}(c, fr[lo:hi], cand)
			}
			wg.Wait()

			// Serial-order merge: chunk order × in-chunk order is exactly
			// the serial visit order, so first occurrence wins the claim
			// and later duplicates are skipped — as in the serial loop.
			maxChunk := 0
			for c := 0; c < chunks; c++ {
				if len(buf.cand[c]) > maxChunk {
					maxChunk = len(buf.cand[c])
				}
				for _, w := range buf.cand[c] {
					if side[w] == Unreached {
						side[w] = s
						next = append(next, w)
					}
				}
				if stats != nil {
					stats.Candidates += len(buf.cand[c])
				}
			}
			if stats != nil {
				stats.ParallelLevels++
				stats.ChunksMerged += chunks
				if maxChunk > stats.MaxChunkCandidates {
					stats.MaxChunkCandidates = maxChunk
				}
				stats.CriticalPath += maxChunk
			}
			frontiers[s] = append(frontiers[s][:0], next...)
		}
	}
	return side
}

// numChunks picks how many chunks a frontier of the given size splits
// into: at most workers, and no chunk smaller than minChunk.
func numChunks(frontier, workers int) int {
	c := frontier / minChunk
	if c > workers {
		c = workers
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the half-open range of chunk c when n items are
// split into chunks contiguous pieces of near-equal size. Pure function
// of its arguments: chunk boundaries never depend on scheduling.
func chunkBounds(n, chunks, c int) (lo, hi int) {
	lo = c * n / chunks
	hi = (c + 1) * n / chunks
	return lo, hi
}
