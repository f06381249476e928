// Checkpoint support: the engine can journal per-start progress into a
// durable sink and later resume, skipping the starts a previous (killed)
// process already completed. Each start is a pure function of (instance,
// seed, start index), so the journal holds no result: only which starts
// finished, their cuts, and which one was the best so far. A resume
// re-runs that best start first, checks its cut against the journal,
// and skips every other journaled start; because the reduction is a
// deterministic ascending-index scan, the resumed run returns the
// result an uninterrupted run with the same Spec returns.
//
// Algorithm packages thread a *CheckpointIO (sink plus resumed state)
// through their Options into Spec.Checkpoint. The sink itself lives in
// internal/checkpoint and satisfies CheckpointSink structurally, so the
// engine does not import the journal and the journal imports only the
// engine's types.
package engine

import "fmt"

// CheckpointSink receives one durable record per start that finished
// under a live context. The engine serializes calls under its own
// mutex, so implementations need no locking. best reports that this
// start became the run's best so far (the first journaled start of a
// fresh run always does). A sink error does not abort the run: the
// engine records it in Stats.CheckpointErr and stops checkpointing —
// compute is never hostage to the journal.
type CheckpointSink interface {
	StartDone(start, cut int, best bool) error
}

// RunState is the resume point recovered from a journal: which starts
// already completed, their recorded primary costs, and which of them
// is the best. A nil *RunState in CheckpointIO means a fresh run.
type RunState struct {
	// Completed flags each start the previous process finished; its
	// length must equal the Spec's normalized Starts.
	Completed []bool
	// Cuts holds each completed start's recorded primary cost, indexed
	// by start (NotRun elsewhere).
	Cuts []int
	// BestStart is the start index of the best completed result, or -1
	// when no start completed. The resume re-runs it and requires its
	// cut to equal Cuts[BestStart].
	BestStart int
}

// CheckpointIO is where snapshots go and, on resume, the state to start
// from. Algorithm Options carry a *CheckpointIO; nil, or a nil Sink,
// disables checkpointing.
type CheckpointIO struct {
	// Sink receives the per-start records.
	Sink CheckpointSink
	// State, when non-nil, resumes from a recovered journal.
	State *RunState
}

// validate checks a resume state against the normalized start count.
func (s *RunState) validate(starts int) error {
	if len(s.Completed) != starts || len(s.Cuts) != starts {
		return fmt.Errorf("engine: checkpoint covers %d starts (%d cuts), spec has %d", len(s.Completed), len(s.Cuts), starts)
	}
	done := 0
	for _, c := range s.Completed {
		if c {
			done++
		}
	}
	if done == 0 && s.BestStart < 0 {
		return nil
	}
	if s.BestStart < 0 || s.BestStart >= starts || !s.Completed[s.BestStart] {
		return fmt.Errorf("engine: checkpoint has %d completed starts but no valid best (BestStart=%d)", done, s.BestStart)
	}
	return nil
}
