package fasthgp

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fasthgp/internal/checkpoint"
)

// checkpointTestHypergraph builds a small instance every registry
// algorithm handles (connected, ≥ 2 vertices, non-trivial cuts).
func checkpointTestHypergraph(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder(10)
	edges := [][]int{
		{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {6, 7, 8}, {8, 9}, {0, 9}, {1, 4, 7},
	}
	for _, e := range edges {
		b.AddEdge(e...)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPartitionCheckpointedMatchesPlain runs every registry algorithm
// twice — plain and checkpointed — and requires identical partitions,
// then resumes the finished journal and requires the identical result
// again, re-running only the best start.
func TestPartitionCheckpointedMatchesPlain(t *testing.T) {
	h := checkpointTestHypergraph(t)
	ctx := context.Background()
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			cfg := AlgoConfig{Starts: 4, Seed: 7}
			plain, err := alg.Run(ctx, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			got, err := PartitionCheckpointed(ctx, h, alg.Name, cfg, path, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.CutSize != plain.CutSize || !reflect.DeepEqual(got.Partition.Sides(), plain.Partition.Sides()) {
				t.Fatalf("checkpointed run differs: cut %d vs %d", got.CutSize, plain.CutSize)
			}
			if got.Engine.CheckpointErr != nil {
				t.Fatalf("CheckpointErr = %v", got.Engine.CheckpointErr)
			}
			if _, err := VerifyCut(h, got.Partition, got.CutSize); err != nil {
				t.Fatal(err)
			}

			resumed, err := PartitionCheckpointed(ctx, h, alg.Name, cfg, path, true)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.CutSize != plain.CutSize || !reflect.DeepEqual(resumed.Partition.Sides(), plain.Partition.Sides()) {
				t.Fatalf("resumed run differs: cut %d vs %d", resumed.CutSize, plain.CutSize)
			}
			if resumed.Engine.StartsResumed != resumed.Engine.StartsRun {
				t.Fatalf("StartsResumed = %d, want all %d", resumed.Engine.StartsResumed, resumed.Engine.StartsRun)
			}
		})
	}
}

// TestPartitionCheckpointedResumeCreatesFresh accepts resume=true on a
// path that does not exist yet, so first runs and retries share flags.
func TestPartitionCheckpointedResumeCreatesFresh(t *testing.T) {
	h := checkpointTestHypergraph(t)
	path := filepath.Join(t.TempDir(), "fresh.ckpt")
	res, err := PartitionCheckpointed(context.Background(), h, "kl", AlgoConfig{Starts: 3, Seed: 1}, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.StartsResumed != 0 {
		t.Fatalf("StartsResumed = %d on a fresh path", res.Engine.StartsResumed)
	}
}

// TestPartitionCheckpointedRefusesForeignJournal refuses to resume a
// journal written by a different run configuration.
func TestPartitionCheckpointedRefusesForeignJournal(t *testing.T) {
	h := checkpointTestHypergraph(t)
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := PartitionCheckpointed(ctx, h, "kl", AlgoConfig{Starts: 3, Seed: 1}, path, false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		algo string
		cfg  AlgoConfig
	}{
		{"algorithm", "fm", AlgoConfig{Starts: 3, Seed: 1}},
		{"seed", "kl", AlgoConfig{Starts: 3, Seed: 2}},
		{"starts", "kl", AlgoConfig{Starts: 5, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := PartitionCheckpointed(ctx, h, tc.algo, tc.cfg, path, true); err == nil {
				t.Fatal("resume with mismatched", tc.name, "succeeded")
			} else if !strings.Contains(err.Error(), "journal") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestPartitionCheckpointedUnknownAlgorithm surfaces registry errors
// before touching the journal path.
func TestPartitionCheckpointedUnknownAlgorithm(t *testing.T) {
	h := checkpointTestHypergraph(t)
	path := filepath.Join(t.TempDir(), "never.ckpt")
	if _, err := PartitionCheckpointed(context.Background(), h, "no-such", AlgoConfig{}, path, false); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestPartitionCheckpointedConstrained is the checkpoint contract under
// the unified balance contract: checkpointed ≡ plain bit-for-bit,
// resume of a finished constrained journal returns the identical
// result, re-running only the best start, and the result satisfies the
// constraint oracle.
func TestPartitionCheckpointedConstrained(t *testing.T) {
	h := checkpointTestHypergraph(t)
	ctx := context.Background()
	fixed := make([]int8, h.NumVertices())
	for i := range fixed {
		fixed[i] = FreeVertex
	}
	fixed[0] = 0
	fixed[9] = 1
	c := Constraint{Epsilon: 0.2, FixedSide: fixed}
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			cfg := AlgoConfig{Starts: 4, Seed: 7, Constraint: c}
			plain, err := alg.Run(ctx, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			got, err := PartitionCheckpointed(ctx, h, alg.Name, cfg, path, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.CutSize != plain.CutSize || !reflect.DeepEqual(got.Partition.Sides(), plain.Partition.Sides()) {
				t.Fatalf("constrained checkpointed run differs: cut %d vs %d", got.CutSize, plain.CutSize)
			}
			if _, err := VerifyConstraint(h, got.Partition, c); err != nil {
				t.Fatal(err)
			}
			resumed, err := PartitionCheckpointed(ctx, h, alg.Name, cfg, path, true)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.CutSize != plain.CutSize || !reflect.DeepEqual(resumed.Partition.Sides(), plain.Partition.Sides()) {
				t.Fatalf("constrained resumed run differs: cut %d vs %d", resumed.CutSize, plain.CutSize)
			}
			if resumed.Engine.StartsResumed != resumed.Engine.StartsRun {
				t.Fatalf("StartsResumed = %d, want all %d", resumed.Engine.StartsResumed, resumed.Engine.StartsRun)
			}
		})
	}
}

// TestPartitionCheckpointedRefusesConstraintMismatch: a journal binds to
// the balance contract it ran under; resuming it under a different ε or
// fixed set must be refused — the per-start results differ, so splicing
// them together would fabricate a result no single run produced.
func TestPartitionCheckpointedRefusesConstraintMismatch(t *testing.T) {
	h := checkpointTestHypergraph(t)
	ctx := context.Background()
	fixed := make([]int8, h.NumVertices())
	for i := range fixed {
		fixed[i] = FreeVertex
	}
	fixed[0] = 0
	otherFixed := append([]int8(nil), fixed...)
	otherFixed[9] = 1
	base := AlgoConfig{Starts: 3, Seed: 1, Constraint: Constraint{Epsilon: 0.1}}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := PartitionCheckpointed(ctx, h, "kl", base, path, false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    Constraint
	}{
		{"different-epsilon", Constraint{Epsilon: 0.3}},
		{"dropped-constraint", Constraint{}},
		{"added-fixed", Constraint{Epsilon: 0.1, FixedSide: fixed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Constraint = tc.c
			if _, err := PartitionCheckpointed(ctx, h, "kl", cfg, path, true); err == nil {
				t.Fatal("resume under a different constraint succeeded")
			} else if !strings.Contains(err.Error(), "journal") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
	// Different fixed SETS with the same ε must also be distinguished
	// (the key hashes the assignment, not just its presence).
	cfgA := AlgoConfig{Starts: 3, Seed: 1, Constraint: Constraint{Epsilon: 0.1, FixedSide: fixed}}
	pathF := filepath.Join(t.TempDir(), "fixed.ckpt")
	if _, err := PartitionCheckpointed(ctx, h, "kl", cfgA, pathF, false); err != nil {
		t.Fatal(err)
	}
	cfgB := cfgA
	cfgB.Constraint = Constraint{Epsilon: 0.1, FixedSide: otherFixed}
	if _, err := PartitionCheckpointed(ctx, h, "kl", cfgB, pathF, true); err == nil {
		t.Fatal("resume under a different fixed set succeeded")
	}
}

// TestResumedResultMatchesUninterrupted resumes Algorithm I (greedy and
// weighted completion), spectral, FM and multilevel from the first K
// records of a real journal, for K = 1 and K = all, and requires the
// whole Result an uninterrupted run returns — the winner's diagnostics
// (Losers, Boundary, BFSDepth, Fiedler, …) included. Masked are only
// the counters of this process's own work: the engine's Wall, CPU and
// StartsResumed, and Algorithm I's DistinctPairs, BitsetBoundaries and
// ProbeSweeps.
func TestResumedResultMatchesUninterrupted(t *testing.T) {
	h := checkpointTestHypergraph(t)
	ctx := context.Background()
	const starts, seed = 6, 3
	timeless := func(es *EngineStats) {
		es.Wall, es.CPU, es.StartsResumed = 0, 0, 0
	}
	core := func(c Completion) func(*CheckpointIO) (any, error) {
		return func(io *CheckpointIO) (any, error) {
			r, err := PartitionCtx(ctx, h, Options{Starts: starts, Seed: seed, Parallelism: 1, Completion: c, Checkpoint: io})
			if err != nil {
				return nil, err
			}
			timeless(&r.Stats.Engine)
			r.Stats.DistinctPairs, r.Stats.BitsetBoundaries, r.Stats.ProbeSweeps = 0, 0, 0
			return r, nil
		}
	}
	runs := map[string]func(*CheckpointIO) (any, error){
		"algI-greedy":   core(CompletionGreedy),
		"algI-weighted": core(CompletionWeighted),
		"spectral": func(io *CheckpointIO) (any, error) {
			r, err := SpectralCtx(ctx, h, SpectralOptions{Starts: starts, Seed: seed, Parallelism: 1, Checkpoint: io})
			if err != nil {
				return nil, err
			}
			timeless(&r.Engine)
			return r, nil
		},
		"fm": func(io *CheckpointIO) (any, error) {
			r, err := FMCtx(ctx, h, FMOptions{Starts: starts, Seed: seed, Parallelism: 1, Checkpoint: io})
			if err != nil {
				return nil, err
			}
			timeless(&r.Engine)
			return r, nil
		},
		"multilevel": func(io *CheckpointIO) (any, error) {
			r, err := MultilevelCtx(ctx, h, MultilevelOptions{Starts: starts, Seed: seed, Parallelism: 1, Checkpoint: io})
			if err != nil {
				return nil, err
			}
			timeless(&r.Engine)
			return r, nil
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			want, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			meta := checkpoint.NewMeta(name, h, seed, starts)
			full := filepath.Join(dir, "full.ckpt")
			rj, err := checkpoint.CreateRun(full, meta)
			if err != nil {
				t.Fatal(err)
			}
			_, err = run(&CheckpointIO{Sink: rj})
			rj.Close()
			if err != nil {
				t.Fatal(err)
			}
			_, recs, err := checkpoint.Open(full)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, len(recs) - 1} {
				// Write the header and the first k records as a journal of
				// their own, as a crash after k appends would leave it.
				path := filepath.Join(dir, fmt.Sprintf("prefix%d.ckpt", k))
				j, err := checkpoint.Create(path, recs[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs[1 : 1+k] {
					if err := j.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				j.Close()
				rj, state, err := checkpoint.Resume(path, meta)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run(&CheckpointIO{Sink: rj, State: state})
				rj.Close()
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("k=%d: resumed Result differs from the uninterrupted one:\ngot  %+v\nwant %+v", k, got, want)
				}
			}
		})
	}
}
