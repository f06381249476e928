package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"fasthgp/internal/engine"
	"fasthgp/internal/hypergraph"
)

// metaVersion is bumped whenever the journal record layout changes; a
// version mismatch refuses to resume rather than misparse.
const metaVersion = 2

// Meta binds a journal to exactly one run. Resume refuses a journal
// whose Meta differs in any field: resuming start 7 of seed 3 on a
// different hypergraph would silently produce garbage, so identity is
// checked, not assumed.
type Meta struct {
	// Version is the record-format version (metaVersion).
	Version int `json:"version"`
	// Algorithm is the registry name of the partitioner.
	Algorithm string `json:"algorithm"`
	// Seed is the run's user-facing seed.
	Seed int64 `json:"seed"`
	// Starts is the normalized multi-start count.
	Starts int `json:"starts"`
	// Vertices, Edges, Pins and Hash fingerprint the instance.
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Pins     int    `json:"pins"`
	Hash     uint64 `json:"hash"`
	// Constraint is the canonical key (partition.Constraint.Key) of the
	// balance contract the run executed under; empty for unconstrained
	// runs. A journal from a run with a different ε or fixed set must
	// not seed this one: the per-start results differ, so identity
	// includes the contract.
	Constraint string `json:"constraint,omitempty"`
}

// NewMeta fingerprints one run of algorithm on h.
func NewMeta(algorithm string, h *hypergraph.Hypergraph, seed int64, starts int) Meta {
	return Meta{
		Version:   metaVersion,
		Algorithm: algorithm,
		Seed:      seed,
		Starts:    engine.Normalize(starts),
		Vertices:  h.NumVertices(),
		Edges:     h.NumEdges(),
		Pins:      h.NumPins(),
		Hash:      HashHypergraph(h),
	}
}

// HashHypergraph fingerprints the structure and weights of h (FNV-1a
// over sizes, per-vertex weights, and per-edge weight + pin lists).
// Vertex and edge names are excluded: they do not affect any cut.
func HashHypergraph(h *hypergraph.Hypergraph) uint64 {
	fh := fnv.New64a()
	var buf [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		fh.Write(buf[:])
	}
	w(uint64(h.NumVertices()))
	w(uint64(h.NumEdges()))
	for v := 0; v < h.NumVertices(); v++ {
		w(uint64(h.VertexWeight(v)))
	}
	for e := 0; e < h.NumEdges(); e++ {
		w(uint64(h.EdgeWeight(e)))
		pins := h.EdgePins(e)
		w(uint64(len(pins)))
		for _, p := range pins {
			w(uint64(p))
		}
	}
	return fh.Sum64()
}

// A start-completion record is [type u8][start u32][cut i64], all
// little-endian. It holds no result: a start is a pure function of the
// run the header binds and its index, so the engine re-runs the best
// start on resume instead of reading its result back.
const (
	// recStartDone marks a start that completed.
	recStartDone = 1
	// recStartBest marks a start that completed and became the run's
	// best so far.
	recStartBest = 2
	// recordSize is the length of every start-completion record.
	recordSize = 1 + 4 + 8
)

// RunJournal journals engine progress for one run. It implements
// engine.CheckpointSink; the engine serializes StartDone calls, so no
// internal locking is needed.
type RunJournal struct {
	j *Journal
}

// CreateRun atomically creates a fresh run journal at path.
func CreateRun(path string, meta Meta) (*RunJournal, error) {
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	j, err := Create(path, hdr)
	if err != nil {
		return nil, err
	}
	return &RunJournal{j: j}, nil
}

// StartDone durably records that a start completed with the given cut
// and, when best is set, became the run's best so far. It is the
// engine's snapshot hook (engine.CheckpointSink).
func (r *RunJournal) StartDone(start, cut int, best bool) error {
	rec := make([]byte, recordSize)
	rec[0] = recStartDone
	if best {
		rec[0] = recStartBest
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(start))
	binary.LittleEndian.PutUint64(rec[5:13], uint64(cut))
	return r.j.Append(rec)
}

// Close closes the journal file.
func (r *RunJournal) Close() error { return r.j.Close() }

// Resume opens the journal at path for the run described by want,
// truncates any torn tail, replays the surviving records into an
// engine.RunState, and returns the journal positioned for further
// appends. The recovery state machine is scan → truncate-at-corruption
// → validate identity → fold records: each record marks its start
// completed with its cut, and the last best record names BestStart. A
// record that is not 13 bytes of a known type, names an out-of-range
// start, or a journal with completed starts but no best record fails
// the resume instead of poisoning the run.
func Resume(path string, want Meta) (*RunJournal, *engine.RunState, error) {
	j, records, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*RunJournal, *engine.RunState, error) {
		j.Close()
		return nil, nil, err
	}
	var meta Meta
	if err := json.Unmarshal(records[0], &meta); err != nil {
		return fail(fmt.Errorf("checkpoint: %s: bad header: %w", path, err))
	}
	if meta != want {
		return fail(fmt.Errorf("checkpoint: %s belongs to a different run: journal %+v, want %+v", path, meta, want))
	}
	state := &engine.RunState{
		Completed: make([]bool, meta.Starts),
		Cuts:      make([]int, meta.Starts),
		BestStart: -1,
	}
	for i := range state.Cuts {
		state.Cuts[i] = engine.NotRun
	}
	for _, rec := range records[1:] {
		if len(rec) != recordSize || (rec[0] != recStartDone && rec[0] != recStartBest) {
			return fail(fmt.Errorf("checkpoint: %s: malformed record", path))
		}
		start := int(binary.LittleEndian.Uint32(rec[1:5]))
		if start >= meta.Starts {
			return fail(fmt.Errorf("checkpoint: %s: malformed record", path))
		}
		state.Completed[start] = true
		state.Cuts[start] = int(int64(binary.LittleEndian.Uint64(rec[5:13])))
		if rec[0] == recStartBest {
			state.BestStart = start
		}
	}
	if len(records) > 1 && state.BestStart < 0 {
		return fail(fmt.Errorf("checkpoint: %s: completed starts but no best record", path))
	}
	return &RunJournal{j: j}, state, nil
}
