package checkpoint_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/engine"
	"fasthgp/internal/faultinject"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
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
	sides := []partition.Side{0, 0, 0, 1, 1, 1}
	best0 := checkpoint.EncodeBest(sides, 3, 2)
	best2 := checkpoint.EncodeBest(sides, 2, 1)
	if err := rj.StartDone(0, 3, best0); err != nil {
		t.Fatal(err)
	}
	if err := rj.StartDone(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := rj.StartDone(2, 2, best2); err != nil {
		t.Fatal(err)
	}
	rj.Close()
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
	if state.BestStart != 2 || state.BestCut != 2 {
		t.Errorf("BestStart=%d BestCut=%d, want 2 and 2 (last best record wins)", state.BestStart, state.BestCut)
	}
	gotSides, cut, aux, err := checkpoint.DecodeBest(state.BestPayload, h.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 || len(aux) != 1 || aux[0] != 1 {
		t.Errorf("decoded cut=%d aux=%v, want 2 and [1]", cut, aux)
	}
	for i, s := range gotSides {
		if s != sides[i] {
			t.Errorf("decoded side[%d] = %v, want %v", i, s, sides[i])
		}
	}
}

func TestEncodeDecodeBest(t *testing.T) {
	sides := []partition.Side{1, 0, 1, 0}
	b := checkpoint.EncodeBest(sides, 7)
	got, cut, aux, err := checkpoint.DecodeBest(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 7 || len(aux) != 0 {
		t.Errorf("cut=%d aux=%v, want 7 and none", cut, aux)
	}
	for i := range sides {
		if got[i] != sides[i] {
			t.Errorf("side[%d] = %v, want %v", i, got[i], sides[i])
		}
	}
	bad := [][]byte{
		nil,
		{1, 2, 3},
		checkpoint.EncodeBest(sides, -1),    // negative cut
		checkpoint.EncodeBest(sides[:3], 7), // wrong vertex count
		checkpoint.EncodeBest([]partition.Side{1, 0, 1, partition.Unassigned}, 7), // incomplete
	}
	for i, b := range bad {
		if _, _, _, err := checkpoint.DecodeBest(b, 4); err == nil {
			t.Errorf("bad payload %d accepted", i)
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

	enc := func(v int) []byte { return checkpoint.EncodeBest([]partition.Side{0, 0, 0, 1, 1, 1}, v) }
	dec := func(b []byte) (int, error) {
		_, cut, _, err := checkpoint.DecodeBest(b, h.NumVertices())
		return cut, err
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
	first.Checkpoint = engine.BindCheckpoint(&engine.CheckpointIO{Sink: rj}, enc, dec)
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
	resumed.Checkpoint = engine.BindCheckpoint(&engine.CheckpointIO{Sink: rj2, State: state}, enc, dec)
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
