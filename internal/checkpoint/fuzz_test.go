package checkpoint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/engine"
)

// FuzzCheckpointReplay feeds arbitrary bytes through the full recovery
// path — journal scan, truncation, meta check, record fold. Whatever
// the bytes, recovery must never panic, and when it accepts, the
// resulting state must be internally consistent — i.e. corruption is
// either truncated away or rejected, never resumed into.
func FuzzCheckpointReplay(f *testing.F) {
	h := testHG(f)
	meta := checkpoint.NewMeta("kl", h, 42, 4)

	// Seed corpus: a healthy journal holding both record types, one cut
	// mid-frame, one with trailing garbage, an empty file, and a
	// journal whose record has the old layout with a result payload.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.ckpt")
	rj, err := checkpoint.CreateRun(seedPath, meta)
	if err != nil {
		f.Fatal(err)
	}
	if err := rj.StartDone(0, 3, true); err != nil {
		f.Fatal(err)
	}
	if err := rj.StartDone(1, 5, false); err != nil {
		f.Fatal(err)
	}
	rj.Close()
	healthy, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-7])
	f.Add(append(append([]byte(nil), healthy...), 0xde, 0xad, 0xbe, 0xef))
	f.Add([]byte{})

	oldPath := filepath.Join(dir, "old.ckpt")
	hdr, err := json.Marshal(meta)
	if err != nil {
		f.Fatal(err)
	}
	j, err := checkpoint.Create(oldPath, hdr)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(oldLayoutRecord()); err != nil {
		f.Fatal(err)
	}
	j.Close()
	if _, _, err := checkpoint.Resume(oldPath, meta); err == nil {
		f.Fatal("Resume accepted an old-layout record")
	}
	old, err := os.ReadFile(oldPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rj, state, err := checkpoint.Resume(path, meta)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		defer rj.Close()
		if len(state.Completed) != meta.Starts || len(state.Cuts) != meta.Starts {
			t.Fatalf("accepted state sized %d/%d, meta has %d starts",
				len(state.Completed), len(state.Cuts), meta.Starts)
		}
		done := 0
		for _, c := range state.Completed {
			if c {
				done++
			}
		}
		if done == 0 {
			if state.BestStart != -1 {
				t.Fatalf("no completed starts but BestStart = %d", state.BestStart)
			}
			return
		}
		if state.BestStart < 0 || state.BestStart >= meta.Starts || !state.Completed[state.BestStart] {
			t.Fatalf("accepted state with invalid BestStart %d", state.BestStart)
		}
		for i, c := range state.Completed {
			if !c && state.Cuts[i] != engine.NotRun {
				t.Fatalf("start %d not completed but has cut %d", i, state.Cuts[i])
			}
		}
	})
}
