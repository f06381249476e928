package engine

import (
	"sync"

	"fasthgp/internal/partition"
)

// Scratch is a per-worker arena of reusable working buffers — BFS
// queues, side arrays, gain arrays, candidate lists — so that parallel
// starts do not allocate (and garbage-collect) the same transient
// slices once per start. A worker leases one Scratch for its lifetime
// and passes it to every start it runs; Release between starts returns
// every handed-out buffer to the arena's free lists.
//
// Buffers are always returned zeroed, so reuse can never leak state
// from one start into another — a determinism requirement, not just
// hygiene. Callers must not retain a buffer past the end of their
// start (in particular, never store one in a Result).
type Scratch struct {
	ints    freeList[int]
	bools   freeList[bool]
	int64s  freeList[int64]
	sides   freeList[partition.Side]
	int8s   freeList[int8]
	uint64s freeList[uint64]
}

// freeList is the arena's store for one element type: buffers free for
// lease and buffers leased since the last Release.
type freeList[T any] struct {
	free, used [][]T
}

// lease hands out a zeroed []T of length n, reusing the most recently
// freed buffer with enough capacity.
func (l *freeList[T]) lease(n int) []T {
	for k := len(l.free) - 1; k >= 0; k-- {
		if cap(l.free[k]) >= n {
			buf := l.free[k][:n]
			l.free[k] = l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			clear(buf)
			l.used = append(l.used, buf)
			return buf
		}
	}
	buf := make([]T, n)
	l.used = append(l.used, buf)
	return buf
}

// release moves every leased buffer back to the free list.
func (l *freeList[T]) release() {
	l.free = append(l.free, l.used...)
	l.used = l.used[:0]
}

// Int8s leases a zeroed []int8 of length n from the arena. Fixed-side
// assignments and per-vertex flow-corridor states are int8-valued, so
// they get their own free list.
func (s *Scratch) Int8s(n int) []int8 { return s.int8s.lease(n) }

// Ints leases a zeroed []int of length n from the arena.
func (s *Scratch) Ints(n int) []int { return s.ints.lease(n) }

// Bools leases a zeroed []bool of length n from the arena.
func (s *Scratch) Bools(n int) []bool { return s.bools.lease(n) }

// Int64s leases a zeroed []int64 of length n from the arena.
func (s *Scratch) Int64s(n int) []int64 { return s.int64s.lease(n) }

// Uint64s leases a zeroed []uint64 of length n from the arena — the
// word currency of bitset rows and masks.
func (s *Scratch) Uint64s(n int) []uint64 { return s.uint64s.lease(n) }

// Sides leases a zeroed []partition.Side of length n from the arena.
// Note the zero Side is Left, not Unassigned — callers that need the
// "nothing placed yet" state must fill with partition.Unassigned
// themselves. Side arrays are the working currency of every
// partitioner's per-start state, so they get their own free list.
func (s *Scratch) Sides(n int) []partition.Side { return s.sides.lease(n) }

// Release reclaims every leased buffer back into the free lists. The
// engine calls it after each start; algorithms running several
// independent phases within one start may also call it themselves.
func (s *Scratch) Release() {
	s.ints.release()
	s.bools.release()
	s.int64s.release()
	s.sides.release()
	s.int8s.release()
	s.uint64s.release()
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch leases a Scratch from the global pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch releases s's buffers and returns it to the global pool.
func PutScratch(s *Scratch) {
	s.Release()
	scratchPool.Put(s)
}
