// Package engine is the shared multi-start runtime behind every
// partitioner in the library. The paper's evaluation (and the whole
// multi-start tradition it sits in) treats repeated independent starts
// as an embarrassingly parallel resource: each start is a pure function
// of (instance, seed, start index). The engine exploits exactly that.
//
// Guarantees:
//
//   - Bit-for-bit seed determinism, independent of Parallelism. Every
//     start draws from its own RNG stream seeded seed ⊕
//     splitmix.Mix64(startIndex), so no start observes another's random
//     draws, and the best-result reduction scans starts in ascending
//     index order with a *strict* improvement predicate — the lowest
//     start index wins ties. Parallel output ≡ serial output.
//   - Cancellation with best-so-far semantics. The context is checked
//     before each start is claimed (and algorithms additionally poll it
//     inside their hot loops); on expiry the engine stops claiming new
//     starts, waits for in-flight ones, and returns the best completed
//     result rather than an error. One start stays exempt from the
//     check — start 0, or on a checkpoint resume the lowest unresumed
//     start — so a result exists whenever no start fails.
//   - No per-start allocation churn: each worker leases a Scratch arena
//     from a sync.Pool and hands it to every start it executes.
//
// The reduction requires Better to be a strict "a improves on b"
// predicate (false for equivalent results); anything looser would let
// a higher start index steal a tie and break parallel determinism.
package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fasthgp/internal/faultinject"
	"fasthgp/internal/resilience"
	"fasthgp/internal/splitmix"
)

// Normalize clamps a multi-start count: values < 1 mean 1. It is the
// single shared home of the "Starts < 1 → 1" rule that the algorithm
// packages used to duplicate.
func Normalize(starts int) int {
	if starts < 1 {
		return 1
	}
	return starts
}

// NormalizeTo is Normalize with a package-specific default: values < 1
// mean def (itself clamped to at least 1). Used by algorithms whose
// zero-value start count historically meant "a few", e.g. flow seed
// pairs (5) or the multilevel initial-partition starts (10).
func NormalizeTo(n, def int) int {
	if n < 1 {
		return Normalize(def)
	}
	return n
}

// NormalizeParallelism clamps a worker count: values < 1 mean
// GOMAXPROCS (use all available cores).
func NormalizeParallelism(p int) int {
	if p < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// StartSeed derives the RNG seed of start index i from the user-facing
// seed. Starts never share a stream, and the mapping is pure, so any
// start can be re-executed in isolation.
func StartSeed(seed int64, i int) int64 {
	return int64(uint64(seed) ^ splitmix.Mix64(uint64(i)))
}

// StartRNG returns the dedicated RNG of start index i under seed.
func StartRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(StartSeed(seed, i)))
}

// NotRun marks a start that never executed in Stats.Cuts (the run was
// cancelled before the start was claimed).
const NotRun = -1

// Stats reports how a multi-start run actually executed. Every
// algorithm Result carries one.
type Stats struct {
	// StartsRequested is the normalized number of starts asked for.
	StartsRequested int
	// StartsRun is the number of starts that completed (equals
	// StartsRequested unless the context expired).
	StartsRun int
	// BestStart is the start index that produced the returned result.
	// Determinism makes it reproducible: serial and parallel runs
	// report the same index.
	BestStart int
	// Cuts records each start's primary cost (NotRun for starts the
	// cancellation skipped), indexed by start.
	Cuts []int
	// Parallelism is the normalized worker count used.
	Parallelism int
	// Wall is the wall-clock duration of the whole multi-start run.
	Wall time.Duration
	// CPU is the summed execution time of the individual starts — the
	// serial-equivalent cost. Wall ≪ CPU is the parallel win.
	CPU time.Duration
	// Cancelled reports that the context expired before every start
	// ran and the result is best-so-far rather than best-of-all.
	Cancelled bool
	// StartsFailed counts starts that panicked. Their converted
	// *resilience.PartitionError values are in Failures; the run
	// degrades to the best result among the surviving starts.
	StartsFailed int
	// Failures holds one *resilience.PartitionError per panicked start,
	// in ascending start-index order.
	Failures []error
	// StartsResumed counts starts skipped because a resumed checkpoint
	// already recorded their completion (they are included in
	// StartsRun: the work was done, just by an earlier process).
	StartsResumed int
	// CheckpointErr is the first error the checkpoint sink returned.
	// The run still completes — compute is never hostage to the
	// journal — but records after the failure were not persisted, so a
	// later resume may redo some starts (and, by determinism, still
	// reach the identical result).
	CheckpointErr error
}

// Spec configures one multi-start run of the engine.
type Spec[T any] struct {
	// Name is the algorithm name carried into PartitionError values
	// when a start panics (optional, diagnostics only).
	Name string
	// Starts is the number of independent starts (Normalize applies).
	Starts int
	// Parallelism is the worker count (NormalizeParallelism applies);
	// it never affects the result, only the wall time.
	Parallelism int
	// Seed is the user-facing seed; start i runs with StartRNG(Seed, i).
	Seed int64
	// Run executes one start. It must be safe for concurrent calls with
	// distinct (start, rng, scratch) arguments, must not retain scratch
	// buffers in its result, and — to honor best-so-far cancellation —
	// should return a usable result (not an error) when it observes ctx
	// expiry mid-start. An algorithm that cannot produce a usable
	// partial result (e.g. an exact method interrupted mid-solve) may
	// instead return the context's error, which marks the start as
	// not-run rather than aborting. Panics inside a start are recovered
	// into *resilience.PartitionError values and degrade the run (the
	// start is skipped and reported in Stats.Failures). Any other error
	// aborts the whole run.
	Run func(ctx context.Context, start int, rng *rand.Rand, scratch *Scratch) (T, error)
	// Better reports that a strictly improves on b. It must be strict:
	// Better(a, b) and Better(b, a) both false means a tie, which the
	// lowest start index wins.
	Better func(a, b T) bool
	// Cut extracts the primary cost of a result for Stats.Cuts.
	// Optional; nil leaves Cuts at NotRun.
	Cut func(T) int
	// Checkpoint, when non-nil, snapshots each completed start into its
	// sink and — when its IO carries a resumed RunState — skips the
	// starts a previous process already completed. Checkpointing never
	// changes the returned result: Better must be a strict weak
	// ordering (all the library's predicates are), which makes the
	// resumed best exactly the result the skipped starts would have
	// reduced to. Build with BindCheckpoint.
	Checkpoint *Checkpoint[T]
}

// ErrNoStart is returned when no start completed, which can only
// happen when start 0 itself fails.
var ErrNoStart = errors.New("engine: no start completed")

// Run executes the multi-start described by spec and returns the best
// result with its run statistics. A start that panics is recovered
// into a *resilience.PartitionError, reported in Stats.Failures, and
// skipped — one poisoned start degrades the run to best-of-the-rest
// instead of crashing the process. Context expiry is not an error
// either: the best result among completed starts is returned with
// Stats.Cancelled set. The returned error is non-nil only when a start
// fails with a genuine error of its own (the first failing start index
// wins) or when no start at all completed (ErrNoStart, joined with the
// first panic's PartitionError when there was one).
func Run[T any](ctx context.Context, spec Spec[T]) (T, Stats, error) {
	var zero T
	starts := Normalize(spec.Starts)
	workers := NormalizeParallelism(spec.Parallelism)
	if workers > starts {
		workers = starts
	}
	st := Stats{
		StartsRequested: starts,
		BestStart:       -1,
		Cuts:            make([]int, starts),
		Parallelism:     workers,
	}
	for i := range st.Cuts {
		st.Cuts[i] = NotRun
	}

	cp := spec.Checkpoint
	if cp != nil && (cp.IO == nil || cp.IO.Sink == nil) {
		cp = nil
	}
	var resumed *RunState
	var resumedBest T
	haveResumedBest := false
	if cp != nil && cp.IO.State != nil {
		resumed = cp.IO.State
		if err := resumed.validate(starts); err != nil {
			return zero, st, err
		}
		if resumed.BestStart >= 0 {
			v, err := cp.Decode(resumed.BestPayload)
			if err != nil {
				return zero, st, err
			}
			resumedBest = v
			haveResumedBest = true
		}
	}
	// mustRun is the one start exempt from the cancellation check, so a
	// result exists whenever no start fails: the lowest unresumed index,
	// or none at all when the resumed state already carries a best.
	mustRun := -1
	if !haveResumedBest {
		mustRun = 0
		for resumed != nil && mustRun < starts && resumed.Completed[mustRun] {
			mustRun++
		}
	}

	results := make([]T, starts)
	completed := make([]bool, starts)
	errs := make([]error, starts)
	begin := time.Now()
	var cpu atomic.Int64
	var failed atomic.Bool

	// Online best tracking for the checkpoint journal. Completion order
	// is arbitrary under parallelism, so "is v the new best" cannot be
	// the reduction's simple ascending scan; the replacement rule below
	// is its order-free equivalent: v takes over when it strictly
	// improves on the incumbent, or ties it from a lower start index.
	// For a strict weak ordering this converges to exactly the
	// ascending-scan winner regardless of arrival order, which is what
	// makes resuming from the journal's last best record deterministic.
	var ckMu sync.Mutex
	ckBestIdx := -1
	var ckBest T
	if haveResumedBest {
		ckBestIdx, ckBest = resumed.BestStart, resumedBest
	}
	record := func(i int, v T) {
		ckMu.Lock()
		defer ckMu.Unlock()
		if st.CheckpointErr != nil {
			return
		}
		improved := ckBestIdx < 0 || spec.Better(v, ckBest) ||
			(i < ckBestIdx && !spec.Better(ckBest, v))
		var payload []byte
		if improved {
			ckBestIdx, ckBest = i, v
			payload = cp.Encode(v)
		}
		cut := NotRun
		if spec.Cut != nil {
			cut = spec.Cut(v)
		}
		if err := cp.IO.Sink.StartDone(i, cut, payload); err != nil {
			st.CheckpointErr = err
		}
	}

	// runOne executes start i into the shared result arrays, inside a
	// recover boundary: a panicking start becomes a typed
	// *resilience.PartitionError in its error slot instead of killing
	// the process. Indices are claimed exactly once, so no two
	// invocations share a slot.
	runOne := func(i int, scratch *Scratch) {
		t0 := time.Now()
		v, err := func() (v T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = resilience.NewPartitionError(spec.Name, i, r)
				}
			}()
			faultinject.Fire(faultinject.PointEngineStart, i)
			return spec.Run(ctx, i, StartRNG(spec.Seed, i), scratch)
		}()
		cpu.Add(int64(time.Since(t0)))
		scratch.Release()
		if err != nil {
			errs[i] = err
			if !degradable(err) {
				failed.Store(true)
			}
			return
		}
		results[i] = v
		completed[i] = true
		if cp != nil {
			record(i, v)
		}
	}
	// claimable reports whether start i may still begin. The mustRun
	// start is exempt from the cancellation check so that a result
	// always exists; other starts stop as soon as the context expires
	// or a start fails.
	claimable := func(i int) bool {
		return i == mustRun || (!failed.Load() && ctx.Err() == nil)
	}
	// skip reports starts a resumed checkpoint already completed.
	skip := func(i int) bool {
		return resumed != nil && resumed.Completed[i]
	}

	if workers <= 1 {
		scratch := GetScratch()
		for i := 0; i < starts; i++ {
			if skip(i) {
				continue
			}
			if !claimable(i) {
				break
			}
			runOne(i, scratch)
		}
		PutScratch(scratch)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				scratch := GetScratch()
				defer PutScratch(scratch)
				for {
					i := int(next.Add(1)) - 1
					if i >= starts {
						return
					}
					if skip(i) {
						continue
					}
					if !claimable(i) {
						return
					}
					runOne(i, scratch)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic reduction: ascending start index, strict
	// improvement only, so the lowest index wins every tie and the
	// winner is independent of completion order. Panicked starts are
	// recorded and skipped; ctx-error starts count as never run; any
	// other error aborts. Resumed starts contribute their recorded cuts
	// and exactly one candidate — the resumed best, which (Better being
	// a strict weak ordering) is the value this very scan would have
	// reduced the skipped starts to.
	ctxSkipped := 0
	for i := 0; i < starts; i++ {
		if skip(i) {
			st.StartsRun++
			st.StartsResumed++
			st.Cuts[i] = resumed.Cuts[i]
			if i == resumed.BestStart {
				results[i] = resumedBest
				if st.BestStart < 0 || spec.Better(results[i], results[st.BestStart]) {
					st.BestStart = i
				}
			}
			continue
		}
		if err := errs[i]; err != nil {
			var pe *resilience.PartitionError
			switch {
			case errors.As(err, &pe):
				st.StartsFailed++
				st.Failures = append(st.Failures, err)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				ctxSkipped++
			default:
				return zero, st, err
			}
			continue
		}
		if !completed[i] {
			continue
		}
		st.StartsRun++
		if spec.Cut != nil {
			st.Cuts[i] = spec.Cut(results[i])
		}
		if st.BestStart < 0 || spec.Better(results[i], results[st.BestStart]) {
			st.BestStart = i
		}
	}
	st.Wall = time.Since(begin)
	st.CPU = time.Duration(cpu.Load())
	st.Cancelled = ctxSkipped > 0 || st.StartsRun+st.StartsFailed+ctxSkipped < starts
	if st.BestStart < 0 {
		if len(st.Failures) > 0 {
			return zero, st, errors.Join(ErrNoStart, st.Failures[0])
		}
		return zero, st, ErrNoStart
	}
	return results[st.BestStart], st, nil
}

// degradable reports errors that must not abort the run: converted
// panics (the start is skipped and reported) and context errors (the
// start counts as never run). Workers keep claiming starts past these.
func degradable(err error) bool {
	var pe *resilience.PartitionError
	return errors.As(err, &pe) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
