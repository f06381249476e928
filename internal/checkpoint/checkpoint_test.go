package checkpoint_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/engine"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/hypergraph"
)

func testHG(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdges(6, [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := checkpoint.Create(path, []byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 4 || string(recs[0]) != "header" || string(recs[1]) != "one" ||
		len(recs[2]) != 0 || string(recs[3]) != "three" {
		t.Fatalf("recovered records %q", recs)
	}
	// Appends after reopen extend the same log.
	if err := j2.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	_, recs, err = checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[4]) != "four" {
		t.Fatalf("after reopen-append, records %q", recs)
	}
}

func TestCreateLeavesNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	// A torn header write aborts creation: the journal path must not
	// exist (rename never happened), only the temp file debris may.
	defer faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointCheckpointWrite, Index: 0, Kind: faultinject.KindTorn},
	}})()
	if _, err := checkpoint.Create(path, []byte("hdr")); !errors.Is(err, checkpoint.ErrTornWrite) {
		t.Fatalf("Create under torn fault: err = %v, want ErrTornWrite", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal path exists after failed creation: %v", err)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := checkpoint.Create(path, []byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Corruptions a crash can leave behind: a short frame header, a
	// frame cut mid-payload, and a bit flip inside a full frame.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"short header":  func(b []byte) []byte { return append(b, 0x01, 0x02) },
		"short payload": func(b []byte) []byte { return append(b, 5, 0, 0, 0, 9, 9, 9, 9, 'x', 'y') },
		"bit flip in appended frame": func(b []byte) []byte {
			b = append(b, 3, 0, 0, 0, 9, 9, 9, 9, 'a', 'b', 'c')
			return b
		},
		"implausible length": func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
		},
	} {
		if err := os.WriteFile(path, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := checkpoint.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 2 || string(recs[1]) != "intact" {
			t.Fatalf("%s: recovered %q, want header+intact", name, recs)
		}
		// The torn tail is gone: a fresh append lands on a clean
		// boundary and survives the next open.
		if err := j2.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		_, recs, err = checkpoint.Open(path)
		if err != nil {
			t.Fatalf("%s reopen: %v", name, err)
		}
		if len(recs) != 3 || string(recs[2]) != "after" {
			t.Fatalf("%s: post-truncation append lost: %q", name, recs)
		}
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A journal with no intact header is corrupt beyond recovery.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Open(path); err == nil {
		t.Fatal("Open accepted a journal with no intact header")
	}
}

func TestInjectedTornWriteIsRecoverable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := checkpoint.Create(path, []byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointCheckpointWrite, Index: 2, Kind: faultinject.KindTorn},
	}})
	err = j.Append([]byte("torn-away"))
	restore()
	if !errors.Is(err, checkpoint.ErrTornWrite) {
		t.Fatalf("Append = %v, want ErrTornWrite", err)
	}
	j.Close()
	_, recs, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1]) != "first" {
		t.Fatalf("recovered %q, want the records before the tear", recs)
	}
}

func TestMetaBindsRun(t *testing.T) {
	h := testHG(t)
	meta := checkpoint.NewMeta("kl", h, 42, 8)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	rj, err := checkpoint.CreateRun(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	rj.Close()
	for name, other := range map[string]checkpoint.Meta{
		"different algorithm": checkpoint.NewMeta("fm", h, 42, 8),
		"different seed":      checkpoint.NewMeta("kl", h, 43, 8),
		"different starts":    checkpoint.NewMeta("kl", h, 42, 9),
	} {
		if _, _, err := checkpoint.Resume(path, other); err == nil {
			t.Errorf("%s: Resume accepted a foreign journal", name)
		}
	}
	hb := hypergraph.NewBuilder(6)
	hb.AddEdge(0, 1)
	h2, err := hb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Resume(path, checkpoint.NewMeta("kl", h2, 42, 8)); err == nil {
		t.Error("Resume accepted a journal for a different hypergraph")
	}
	if rj2, _, err := checkpoint.Resume(path, meta); err != nil {
		t.Fatalf("Resume with matching meta: %v", err)
	} else {
		rj2.Close()
	}
}

func TestResumeReplaysRecords(t *testing.T) {
	h := testHG(t)
	meta := checkpoint.NewMeta("kl", h, 1, 4)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	rj, err := checkpoint.CreateRun(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		start, cut int
		best       bool
	}{{0, 3, true}, {1, 5, false}, {2, 2, true}} {
		if err := rj.StartDone(r.start, r.cut, r.best); err != nil {
			t.Fatal(err)
		}
	}
	rj.Close()
	_, recs, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[1:] {
		if len(rec) != 13 {
			t.Errorf("record %d is %d bytes, want 13 ([type u8][start u32][cut i64])", i, len(rec))
		}
	}
	rj2, state, err := checkpoint.Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer rj2.Close()
	wantCompleted := []bool{true, true, true, false}
	wantCuts := []int{3, 5, 2, engine.NotRun}
	for i := range wantCompleted {
		if state.Completed[i] != wantCompleted[i] || state.Cuts[i] != wantCuts[i] {
			t.Errorf("start %d: completed=%v cut=%d, want %v %d",
				i, state.Completed[i], state.Cuts[i], wantCompleted[i], wantCuts[i])
		}
	}
	if state.BestStart != 2 {
		t.Errorf("BestStart=%d, want 2 (last best record wins)", state.BestStart)
	}
}

// oldLayoutRecord is a start-completion record as version 1 of the
// journal wrote it: [type u8][start u32][cut i64][payload length u32]
// followed by the best start's encoded result.
func oldLayoutRecord() []byte {
	rec := []byte{1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}
	payload := []byte{0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 1, 1, 1}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	return append(rec, payload...)
}

// TestResumeRefusesOldLayout: a journal written by version 1, which
// stored the best start's result in its records, is refused by the
// version check; an old-layout record under a current header is
// refused as malformed.
func TestResumeRefusesOldLayout(t *testing.T) {
	h := testHG(t)
	meta := checkpoint.NewMeta("kl", h, 1, 4)
	old := meta
	old.Version = 1
	for name, tc := range map[string]struct {
		meta checkpoint.Meta
		want string
	}{
		"version 1 journal":          {old, "different run"},
		"old record, current header": {meta, "malformed record"},
	} {
		hdr, err := json.Marshal(tc.meta)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		j, err := checkpoint.Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(oldLayoutRecord()); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, _, err := checkpoint.Resume(path, meta); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resume = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestEngineResumeThroughJournal is the in-process version of the chaos
// test: run with a journal, "crash" by tearing a write partway through,
// reopen, resume, and require the exact result of an uninterrupted run.
func TestEngineResumeThroughJournal(t *testing.T) {
	h := testHG(t)
	const starts = 10
	spec := engine.Spec[int]{
		Starts: starts,
		Seed:   9,
		Run: func(_ context.Context, start int, rng *rand.Rand, _ *engine.Scratch) (int, error) {
			return rng.Intn(50), nil
		},
		Better: func(a, b int) bool { return a < b },
		Cut:    func(v int) int { return v },
	}
	golden, gst, err := engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	meta := checkpoint.NewMeta("toy", h, 9, starts)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	rj, err := checkpoint.CreateRun(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the 6th record (header is record 0): the run keeps computing
	// but journaling stops — a simulated crash of the journal disk.
	restore := faultinject.Install(&faultinject.Plan{Rules: []faultinject.Rule{
		{Point: faultinject.PointCheckpointWrite, Index: 6, Kind: faultinject.KindTorn},
	}})
	first := spec
	first.Checkpoint = &engine.CheckpointIO{Sink: rj}
	_, st1, err := engine.Run(context.Background(), first)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(st1.CheckpointErr, checkpoint.ErrTornWrite) {
		t.Fatalf("CheckpointErr = %v, want ErrTornWrite", st1.CheckpointErr)
	}
	rj.Close()

	rj2, state, err := checkpoint.Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer rj2.Close()
	resumed := spec
	resumed.Checkpoint = &engine.CheckpointIO{Sink: rj2, State: state}
	got, st2, err := engine.Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got != golden || st2.BestStart != gst.BestStart {
		t.Errorf("resumed run returned %d (start %d), uninterrupted %d (start %d)",
			got, st2.BestStart, golden, gst.BestStart)
	}
	if st2.StartsResumed == 0 || st2.StartsResumed >= starts {
		t.Errorf("StartsResumed = %d, want a proper partial resume", st2.StartsResumed)
	}
	if st2.CheckpointErr != nil {
		t.Errorf("resumed run's journal failed: %v", st2.CheckpointErr)
	}
}
