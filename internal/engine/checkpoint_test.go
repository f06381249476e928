package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// memSink is an in-memory CheckpointSink: each record mirrors what a
// journal would persist, and failAfter simulates a dying disk.
type memSink struct {
	recs      []memRec
	failAfter int // fail every call once len(recs) reaches this (-1: never)
}

type memRec struct {
	start, cut int
	best       bool
}

func (m *memSink) StartDone(start, cut int, best bool) error {
	if m.failAfter >= 0 && len(m.recs) >= m.failAfter {
		return errors.New("sink: disk full")
	}
	m.recs = append(m.recs, memRec{start, cut, best})
	return nil
}

// state folds the sink's records into a RunState exactly the way the
// journal replay does: last best record wins.
func (m *memSink) state(starts int) *RunState {
	s := &RunState{Completed: make([]bool, starts), Cuts: make([]int, starts), BestStart: -1}
	for i := range s.Cuts {
		s.Cuts[i] = NotRun
	}
	for _, r := range m.recs {
		s.Completed[r.start] = true
		s.Cuts[r.start] = r.cut
		if r.best {
			s.BestStart = r.start
		}
	}
	return s
}

func checkpointed(spec Spec[int], io *CheckpointIO) Spec[int] {
	spec.Checkpoint = io
	return spec
}

func TestCheckpointRecordsEveryStart(t *testing.T) {
	sink := &memSink{failAfter: -1}
	spec := checkpointed(scoreSpec(16, 4, 7), &CheckpointIO{Sink: sink})
	best, st, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 16 {
		t.Fatalf("sink got %d records, want 16", len(sink.recs))
	}
	seen := map[int]bool{}
	lastBest := -1
	for _, r := range sink.recs {
		if seen[r.start] {
			t.Errorf("start %d recorded twice", r.start)
		}
		seen[r.start] = true
		if r.cut != st.Cuts[r.start] {
			t.Errorf("start %d recorded cut %d, stats say %d", r.start, r.cut, st.Cuts[r.start])
		}
		if r.best {
			lastBest = r.start
		}
	}
	if !sink.recs[0].best {
		t.Error("first completed start wrote no best record")
	}
	if lastBest != st.BestStart || st.Cuts[lastBest] != best {
		t.Errorf("last best record is start %d, run returned %d from start %d", lastBest, best, st.BestStart)
	}
}

// TestCheckpointOnlineBestMatchesReduction drives completion out of
// index order (high parallelism, every start ties) and checks the
// journal's final best record names the same winner as the
// deterministic ascending-scan reduction.
func TestCheckpointOnlineBestMatchesReduction(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		sink := &memSink{failAfter: -1}
		spec := Spec[int]{
			Starts:      16,
			Parallelism: 8,
			Run: func(_ context.Context, start int, _ *rand.Rand, _ *Scratch) (int, error) {
				return 5, nil // every start ties: lowest index must win
			},
			Better: func(a, b int) bool { return a < b },
		}
		spec = checkpointed(spec, &CheckpointIO{Sink: sink})
		_, st, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.BestStart != 0 {
			t.Fatalf("reduction picked start %d, want 0", st.BestStart)
		}
		if rs := sink.state(16); rs.BestStart != 0 {
			t.Fatalf("journal's last best record is start %d, want 0", rs.BestStart)
		}
	}
}

// TestResumeIsBitForBitIdentical interrupts a run after every possible
// record count K and checks the resumed run reproduces the
// uninterrupted result exactly, at several parallelism levels.
func TestResumeIsBitForBitIdentical(t *testing.T) {
	const starts = 12
	golden, gst, err := Run(context.Background(), scoreSpec(starts, 1, 42))
	if err != nil {
		t.Fatal(err)
	}
	full := &memSink{failAfter: -1}
	if _, _, err := Run(context.Background(), checkpointed(scoreSpec(starts, 1, 42), &CheckpointIO{Sink: full})); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= starts; k++ {
		partial := &memSink{failAfter: -1, recs: full.recs[:k]}
		for _, par := range []int{1, 4} {
			resumeSink := &memSink{failAfter: -1}
			spec := checkpointed(scoreSpec(starts, par, 42),
				&CheckpointIO{Sink: resumeSink, State: partial.state(starts)})
			got, st, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("k=%d par=%d: %v", k, par, err)
			}
			if got != golden || st.BestStart != gst.BestStart {
				t.Errorf("k=%d par=%d: resumed %d (start %d), uninterrupted %d (start %d)",
					k, par, got, st.BestStart, golden, gst.BestStart)
			}
			if st.StartsResumed != k || st.StartsRun != starts {
				t.Errorf("k=%d par=%d: StartsResumed=%d StartsRun=%d, want %d and %d",
					k, par, st.StartsResumed, st.StartsRun, k, starts)
			}
			if len(resumeSink.recs) != starts-k {
				t.Errorf("k=%d par=%d: resumed run wrote %d records, want %d", k, par, len(resumeSink.recs), starts-k)
			}
			for i := range st.Cuts {
				if st.Cuts[i] != gst.Cuts[i] {
					t.Errorf("k=%d par=%d: Cuts[%d] = %d, uninterrupted %d", k, par, i, st.Cuts[i], gst.Cuts[i])
				}
			}
		}
	}
}

// TestResumeFullyCompletedRunsNothing: a fully journaled run starts
// nothing new; only the best start re-runs, to recover its result, and
// its record is not written again.
func TestResumeFullyCompletedRunsNothing(t *testing.T) {
	full := &memSink{failAfter: -1}
	if _, _, err := Run(context.Background(), checkpointed(scoreSpec(8, 2, 3), &CheckpointIO{Sink: full})); err != nil {
		t.Fatal(err)
	}
	golden, gst, _ := Run(context.Background(), scoreSpec(8, 1, 3))
	spec := scoreSpec(8, 2, 3)
	run := spec.Run
	var ran []int
	spec.Run = func(ctx context.Context, start int, rng *rand.Rand, scratch *Scratch) (int, error) {
		ran = append(ran, start) // only the re-run may call this, so no race
		return run(ctx, start, rng, scratch)
	}
	resumeSink := &memSink{failAfter: -1}
	got, st, err := Run(context.Background(), checkpointed(spec, &CheckpointIO{Sink: resumeSink, State: full.state(8)}))
	if err != nil {
		t.Fatal(err)
	}
	if got != golden || st.BestStart != gst.BestStart {
		t.Errorf("fully-resumed run returned %d (start %d), want %d (start %d)", got, st.BestStart, golden, gst.BestStart)
	}
	if st.StartsResumed != 8 || len(ran) != 1 || ran[0] != gst.BestStart || len(resumeSink.recs) != 0 {
		t.Errorf("StartsResumed=%d, starts run %v, %d records written; want 8, [%d] (only the best start re-runs) and 0",
			st.StartsResumed, ran, len(resumeSink.recs), gst.BestStart)
	}
}

// TestResumePreCancelledReturnsResumedBest: with a best in the resumed
// state, no start is exempt from cancellation, and the best start's
// re-run, detached from the cancelled context, returns its journaled
// result.
func TestResumePreCancelledReturnsResumedBest(t *testing.T) {
	full := &memSink{failAfter: -1}
	if _, _, err := Run(context.Background(), checkpointed(scoreSpec(8, 1, 3), &CheckpointIO{Sink: full})); err != nil {
		t.Fatal(err)
	}
	partial := &memSink{failAfter: -1, recs: full.recs[:3]}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, st, err := Run(ctx,
		checkpointed(scoreSpec(8, 1, 3), &CheckpointIO{Sink: &memSink{failAfter: -1}, State: partial.state(8)}))
	if err != nil {
		t.Fatal(err)
	}
	if st.StartsRun != 3 || st.StartsResumed != 3 || !st.Cancelled {
		t.Errorf("StartsRun=%d StartsResumed=%d Cancelled=%v, want 3, 3, true", st.StartsRun, st.StartsResumed, st.Cancelled)
	}
	want := partial.state(8)
	if got != want.Cuts[want.BestStart] || st.BestStart != want.BestStart {
		t.Errorf("got %d (start %d), want resumed best %d (start %d)", got, st.BestStart, want.Cuts[want.BestStart], want.BestStart)
	}
}

func TestResumeRejectsMismatchedState(t *testing.T) {
	base := scoreSpec(8, 1, 3)
	for name, state := range map[string]*RunState{
		"wrong length": {Completed: make([]bool, 5), Cuts: make([]int, 5), BestStart: -1},
		"wrong cuts":   {Completed: make([]bool, 8), Cuts: make([]int, 3), BestStart: -1},
		"completed without best": {
			Completed: []bool{true, false, false, false, false, false, false, false},
			Cuts:      make([]int, 8), BestStart: -1,
		},
		"best not completed": {
			Completed: []bool{true, false, false, false, false, false, false, false},
			Cuts:      make([]int, 8), BestStart: 3,
		},
		"best without completed starts": {Completed: make([]bool, 8), Cuts: make([]int, 8), BestStart: 0},
	} {
		spec := checkpointed(base, &CheckpointIO{Sink: &memSink{failAfter: -1}, State: state})
		if _, _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("%s: resume accepted invalid state", name)
		}
	}
	// Without a sink checkpointing is off, and the state is not read.
	if _, _, err := Run(context.Background(), checkpointed(base, &CheckpointIO{State: &RunState{BestStart: 3}})); err != nil {
		t.Errorf("sinkless CheckpointIO: %v, want its state ignored", err)
	}
}

// TestResumeRefusesIrreproducibleBest: a journal whose best start
// re-runs to a different cut (written by other code, or for other
// input) is refused with an error naming the start and both cuts.
func TestResumeRefusesIrreproducibleBest(t *testing.T) {
	full := &memSink{failAfter: -1}
	if _, _, err := Run(context.Background(), checkpointed(scoreSpec(8, 1, 3), &CheckpointIO{Sink: full})); err != nil {
		t.Fatal(err)
	}
	state := full.state(8)
	b, cut := state.BestStart, state.Cuts[state.BestStart]
	state.Cuts[b] = cut + 7
	_, _, err := Run(context.Background(), checkpointed(scoreSpec(8, 1, 3), &CheckpointIO{Sink: &memSink{failAfter: -1}, State: state}))
	if err == nil {
		t.Fatal("resume accepted a best start that does not reproduce its journaled cut")
	}
	for _, want := range []string{fmt.Sprintf("start %d", b), fmt.Sprintf("cut %d", cut), fmt.Sprintf("cut %d", cut+7)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestCheckpointSinkFailureDegrades: a failing sink must not abort the
// run or change its result, only set Stats.CheckpointErr.
func TestCheckpointSinkFailureDegrades(t *testing.T) {
	golden, _, _ := Run(context.Background(), scoreSpec(12, 1, 9))
	sink := &memSink{failAfter: 4}
	got, st, err := Run(context.Background(), checkpointed(scoreSpec(12, 3, 9), &CheckpointIO{Sink: sink}))
	if err != nil {
		t.Fatal(err)
	}
	if got != golden {
		t.Errorf("run with failing sink returned %d, want %d", got, golden)
	}
	if st.CheckpointErr == nil {
		t.Error("Stats.CheckpointErr not set after sink failure")
	}
	if len(sink.recs) != 4 {
		t.Errorf("sink holds %d records, want 4 (journaling stops at first failure)", len(sink.recs))
	}
	if st.StartsRun != 12 {
		t.Errorf("StartsRun = %d, want 12 (compute is not hostage to the journal)", st.StartsRun)
	}
}

// TestCheckpointSkipsStartsFinishedAfterCancel: a start that returns
// after its context expired may hand back a best-so-far result, so it
// must not be journaled. The cancel fires inside start k, which then
// returns a different value than a complete run of it would; the
// resume must run start k again and match an uninterrupted run.
func TestCheckpointSkipsStartsFinishedAfterCancel(t *testing.T) {
	const starts, k = 6, 2
	spec := func(cancel context.CancelFunc) Spec[int] {
		s := scoreSpec(starts, 1, 11)
		run := s.Run
		s.Run = func(ctx context.Context, start int, rng *rand.Rand, scratch *Scratch) (int, error) {
			v, err := run(ctx, start, rng, scratch)
			if start == k && cancel != nil {
				cancel()
			}
			if ctx.Err() != nil {
				v += 1000 // what an interrupted start would keep
			}
			return v, err
		}
		return s
	}
	golden, gst, err := Run(context.Background(), spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &memSink{failAfter: -1}
	if _, _, err := Run(ctx, checkpointed(spec(cancel), &CheckpointIO{Sink: sink})); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != k {
		t.Errorf("journal holds %d records, want %d (starts before the cancel)", len(sink.recs), k)
	}
	for _, r := range sink.recs {
		if r.start >= k {
			t.Errorf("start %d journaled although it returned after the cancel", r.start)
		}
	}
	got, st, err := Run(context.Background(),
		checkpointed(spec(nil), &CheckpointIO{Sink: &memSink{failAfter: -1}, State: sink.state(starts)}))
	if err != nil {
		t.Fatal(err)
	}
	if got != golden || st.BestStart != gst.BestStart {
		t.Errorf("resumed %d (start %d), uninterrupted %d (start %d)", got, st.BestStart, golden, gst.BestStart)
	}
	for i := range st.Cuts {
		if st.Cuts[i] != gst.Cuts[i] {
			t.Errorf("Cuts[%d] = %d, uninterrupted %d", i, st.Cuts[i], gst.Cuts[i])
		}
	}
}
