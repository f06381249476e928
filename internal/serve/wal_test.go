package serve

// WAL compatibility: testdata/hgpartd.wal and testdata/hgpartcoord.wal
// were written by the two daemons' separate WAL implementations that
// this package replaced, from the records below, and the .replay.json
// files hold what those implementations replayed them to (the pending
// list, the job table, the highest job sequence). The shared WAL must
// replay both files to the same state and write both byte for byte.
// The coordinator's file was rewritten once since, when its accepted
// records stopped carrying their routing key ("fingerprint", "opts");
// cmd/hgpartcoord's tests replay records in that older form.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fasthgp/internal/checkpoint"
	"fasthgp/internal/fleet"
)

const (
	fixNets  = "module a\nmodule b\nmodule c\nmodule d\nnet n1 a b c\nnet n2 c d\nnet n3 a d\n"
	fixFixed = "module a\nmodule b\nmodule c\nmodule d\nnet n1 a b c\nnet n2 c d\nfixed a L\nfixed d R\n"
	fixHgr   = "3 4\n1 2 3\n3 4\n1 4\n"
)

// fixtureRecords are the records each fixture WAL was written from:
// accepted, done (one degraded), and failed outcomes, plus j4 left
// pending.
var fixtureRecords = map[string][]Record{
	"hgpartd": {
		{Type: "accepted", JobID: "j1", Query: "seed=3&starts=2", Netlist: fixNets},
		{Type: "done", JobID: "j1", Cut: 2, TierName: "multilevel", WallMS: 4},
		{Type: "accepted", JobID: "j2", Format: "hgr", Query: "chain=fm&starts=2", Netlist: fixHgr},
		{Type: "failed", JobID: "j2", Error: "partition failed: every tier failed"},
		{Type: "accepted", JobID: "j3", Format: "nets", Query: "epsilon=0.1&seed=9", Netlist: fixFixed},
		{Type: "done", JobID: "j3", Cut: 1, TierName: "fm", Degraded: true, WallMS: 12},
		{Type: "accepted", JobID: "j4", Query: "seed=5", Netlist: fixNets},
		{Type: "accepted", JobID: "j5", Netlist: fixNets},
		{Type: "done", JobID: "j5", TierName: "algo1"},
	},
	"hgpartcoord": {
		{Type: "accepted", JobID: "j1", Query: "seed=3&starts=2", Netlist: fixNets},
		{Type: "done", JobID: "j1", Cut: 2, TierName: "fm", Worker: "w1", WallMS: 7},
		{Type: "accepted", JobID: "j2", Format: "hgr", Query: "starts=zero", Netlist: fixHgr},
		{Type: "failed", JobID: "j2", Error: "{\"error\":\"bad starts \\\"zero\\\"\",\"status\":400}\n"},
		{Type: "accepted", JobID: "j3", Format: "nets", Query: "epsilon=0.1&seed=9", Netlist: fixFixed},
		{Type: "done", JobID: "j3", Cut: 1, TierName: "multilevel", Worker: "w2", Degraded: true},
		{Type: "accepted", JobID: "j4", Query: "seed=5", Netlist: fixNets},
		{Type: "accepted", JobID: "j5", Netlist: fixNets},
		{Type: "failed", JobID: "j5", Error: "all forwards failed: all 8 attempt(s) failed: no workers registered"},
	},
}

// copyFixture copies testdata/<name>.wal to a temp dir (opening a WAL
// may truncate a torn tail, so the committed file is never opened).
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testEdge(name string) *Edge { return NewEdge(name, io.Discard, 1<<20, time.Second) }

func TestWALFixtureReplaysToSameState(t *testing.T) {
	for name := range fixtureRecords {
		t.Run(name, func(t *testing.T) {
			var want struct {
				MaxSeq  int64           `json:"max_seq"`
				Pending []Record        `json:"pending"`
				Jobs    []fleet.JobInfo `json:"jobs"`
			}
			raw, err := os.ReadFile(filepath.Join("testdata", name+".replay.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			e := testEdge(name)
			pending, err := e.OpenWAL(copyFixture(t, name))
			if err != nil {
				t.Fatal(err)
			}
			defer e.WAL.Close()
			if !reflect.DeepEqual(pending, want.Pending) {
				t.Errorf("pending = %+v\nwant      %+v", pending, want.Pending)
			}
			for _, wj := range want.Jobs {
				if got, ok := e.Jobs.Get(wj.ID); !ok || got != wj {
					t.Errorf("job %s = %+v (tracked %v), want %+v", wj.ID, got, ok, wj)
				}
			}
			if id := e.Jobs.Create(); id != fleet.JobID(want.MaxSeq+1) {
				t.Errorf("first new id = %s, want %s", id, fleet.JobID(want.MaxSeq+1))
			}
		})
	}
}

func TestWALFixtureWrittenByteForByte(t *testing.T) {
	for name, recs := range fixtureRecords {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			e := testEdge(name)
			if _, err := e.OpenWAL(path); err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := e.WAL.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			e.WAL.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("WAL bytes differ from testdata/%s.wal:\ngot  %q\nwant %q", name, got, want)
			}
		})
	}
}

func TestWALRefusesOtherDaemonsFile(t *testing.T) {
	for _, tc := range []struct{ file, opener string }{
		{"hgpartd", "hgpartcoord"},
		{"hgpartcoord", "hgpartd"},
	} {
		e := testEdge(tc.opener)
		_, err := e.OpenWAL(copyFixture(t, tc.file))
		if err == nil || !strings.Contains(err.Error(), "is not an "+tc.opener+" WAL") {
			t.Errorf("%s opening the %s WAL: err = %v, want a purpose mismatch", tc.opener, tc.file, err)
		}
		if e.WAL != nil {
			t.Errorf("%s attached a foreign WAL", tc.opener)
		}
	}
}

func TestWALRefusesOtherVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := checkpoint.Create(path, []byte(`{"version":2,"purpose":"hgpartd-wal"}`))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = testEdge("hgpartd").OpenWAL(path)
	if err == nil || !strings.Contains(err.Error(), "is version 2") {
		t.Errorf("err = %v, want a version mismatch", err)
	}
}

// TestWALDisabledIsNil: a nil *WAL accepts appends as no-ops and
// reports "wal": false on /healthz and zero errors on /stats.
func TestWALDisabledIsNil(t *testing.T) {
	var w *WAL
	if err := w.Append(Record{Type: "accepted", JobID: "j1"}); err != nil {
		t.Errorf("nil WAL append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil WAL close: %v", err)
	}
	health := map[string]any{}
	if reasons := w.health(health, nil); len(reasons) != 0 || health["wal"] != false || len(health) != 1 {
		t.Errorf("health = %v, reasons %v; want only wal=false", health, reasons)
	}
	stats := map[string]any{}
	w.stats(stats)
	if stats["wal_errors"] != int64(0) || len(stats) != 1 {
		t.Errorf("stats = %v, want only wal_errors=0", stats)
	}
}

// TestWALReplaySkipsSchemaDrift: a CRC-valid frame that is not a
// record never blocks boot; the records around it still replay.
func TestWALReplaySkipsSchemaDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	e := testEdge("hgpartd")
	if _, err := e.OpenWAL(path); err != nil {
		t.Fatal(err)
	}
	e.WAL.Append(Record{Type: "accepted", JobID: "j1", Netlist: fixNets})
	e.WAL.mu.Lock()
	e.WAL.j.Append([]byte("not json"))
	e.WAL.mu.Unlock()
	e.WAL.Append(Record{Type: "accepted", JobID: "j2", Netlist: fixNets})
	e.WAL.Close()

	e2 := testEdge("hgpartd")
	pending, err := e2.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.WAL.Close()
	if len(pending) != 2 || pending[0].JobID != "j1" || pending[1].JobID != "j2" {
		t.Errorf("pending = %+v, want j1 and j2", pending)
	}
}
