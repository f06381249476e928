package fm

// The FM pass as it ran before its bucket queue was threaded through
// one flat entry list and before cutstate folded the move into the
// walk that reports gain deltas. The reference pass, queue and move
// are the oracle the production ones must match step for step: the
// same gain deltas in the same order, the same pops (stale entries,
// duplicates and legality discards included), the same moves.

import (
	"math/rand"
	"testing"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// sliceBuckets is the lazy max-gain bucket queue with one growing slice
// per gain.
type sliceBuckets struct {
	offset int
	lists  [][]int
	maxPtr int
}

func newSliceBuckets(maxGain int) *sliceBuckets {
	return &sliceBuckets{offset: maxGain, lists: make([][]int, 2*maxGain+1), maxPtr: -1}
}

func (b *sliceBuckets) push(v, gain int) {
	i := gain + b.offset
	b.lists[i] = append(b.lists[i], v)
	if i > b.maxPtr {
		b.maxPtr = i
	}
}

func (b *sliceBuckets) pop(valid func(v, gain int) bool) (int, bool) {
	for b.maxPtr >= 0 {
		l := b.lists[b.maxPtr]
		if len(l) == 0 {
			b.maxPtr--
			continue
		}
		v := l[len(l)-1]
		b.lists[b.maxPtr] = l[:len(l)-1]
		if valid(v, b.maxPtr-b.offset) {
			return v, true
		}
	}
	return 0, false
}

// twoPassMove reports v's move's gain deltas by the Fiduccia–Mattheyses
// rules from the counts before the move, then moves v with a second
// walk over its nets (cutstate.Move).
func twoPassMove(s *cutstate.State, v int, bump func(u, d int)) int {
	h := s.Hypergraph()
	from := s.Side(v)
	for _, e := range h.VertexEdges(v) {
		f, t := s.Counts(e)
		if from == partition.Right {
			f, t = t, f
		}
		switch t {
		case 0:
			for _, u := range h.EdgePins(e) {
				if u != v {
					bump(u, +1)
				}
			}
		case 1:
			for _, u := range h.EdgePins(e) {
				if u != v && s.Side(u) != from {
					bump(u, -1)
				}
			}
		}
		switch f - 1 {
		case 0:
			for _, u := range h.EdgePins(e) {
				if u != v {
					bump(u, -1)
				}
			}
		case 1:
			for _, u := range h.EdgePins(e) {
				if u != v && s.Side(u) == from {
					bump(u, +1)
				}
			}
		}
	}
	return s.Move(v)
}

// referencePass is runPass on sliceBuckets and twoPassMove, with a
// fresh queue and move sequence per pass.
func referencePass(s *cutstate.State, minSide int64, fixed, locked []bool, gain []int) (int, []int) {
	h := s.Hypergraph()
	n := h.NumVertices()
	clear(locked)
	if fixed != nil {
		copy(locked, fixed)
	}
	clear(gain)
	bq := newSliceBuckets(h.MaxVertexDegree())
	for v := 0; v < n; v++ {
		gain[v] = s.Gain(v)
		if !locked[v] {
			bq.push(v, gain[v])
		}
	}
	l, r, _ := s.Partition().Counts()
	legal := func(v int) bool {
		lw, rw := s.Weights()
		w := h.VertexWeight(v)
		if s.Side(v) == partition.Left {
			return lw-w >= minSide && l > 1
		}
		return rw-w >= minSide && r > 1
	}
	var seq []int
	cum, bestCum, bestIdx := 0, 0, -1
	for {
		v, ok := bq.pop(func(v, g int) bool {
			return !locked[v] && gain[v] == g && legal(v)
		})
		if !ok {
			break
		}
		twoPassMove(s, v, func(u, d int) {
			if locked[u] {
				return
			}
			gain[u] += d
			bq.push(u, gain[u])
		})
		if s.Side(v) == partition.Left {
			l, r = l+1, r-1
		} else {
			l, r = l-1, r+1
		}
		locked[v] = true
		seq = append(seq, v)
		cum += gain[v]
		if cum > bestCum {
			bestCum, bestIdx = cum, len(seq)-1
		}
	}
	for i := len(seq) - 1; i > bestIdx; i-- {
		s.Move(seq[i])
	}
	return bestCum, seq
}

// instanceFromBytes decodes a small weighted hypergraph, a complete
// bipartition with both sides nonempty, a fixed set and a side floor
// from fuzz input; every byte string decodes to some instance.
func instanceFromBytes(data []byte) (h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []bool, minSide int64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%30
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int64(1+next()%3))
	}
	for e := next() % (3 * n); e >= 0; e-- {
		pins := make([]int, 1+next()%6)
		for i := range pins {
			pins[i] = next() % n
		}
		id := b.AddEdge(pins...)
		b.SetEdgeWeight(id, int64(1+next()%2))
	}
	h = b.MustBuild()
	p = partition.New(n)
	fixed = make([]bool, n)
	for v := 0; v < n; v++ {
		x := next()
		p.Assign(v, partition.Side(x&1))
		fixed[v] = x&6 == 6
	}
	p.Assign(0, partition.Left)
	p.Assign(n-1, partition.Right)
	minSide = int64(next()%5) * h.TotalVertexWeight() / 10
	return h, p, fixed, minSide
}

// checkAgainstReference holds the production move, queue and pass to
// the reference ones on one instance.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	h, p, fixed, minSide := instanceFromBytes(data)
	n := h.NumVertices()

	// Gain deltas: the same bumps in the same order, and the same
	// realized gain, over a sequence of moves.
	s, err := cutstate.New(h, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cutstate.New(h, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	var got, want [][2]int
	for step, v := range data {
		v := int(v) % n
		got, want = got[:0], want[:0]
		gg := s.MoveWithGainDeltas(v, func(u, d int) { got = append(got, [2]int{u, d}) })
		wg := twoPassMove(ref, v, func(u, d int) { want = append(want, [2]int{u, d}) })
		if gg != wg || len(got) != len(want) {
			t.Fatalf("move %d of %d: gain %d and %d deltas, the two-pass move %d and %d", step, v, gg, len(got), wg, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("move %d of %d: delta %d is %v, the two-pass move reports %v", step, v, i, got[i], want[i])
			}
		}
		if s.Cut() != ref.Cut() {
			t.Fatalf("move %d: cut %d, two-pass %d", step, s.Cut(), ref.Cut())
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	// Queue: pushes with duplicates, pops under a validity rule that
	// discards stale and "illegal" entries, and a reset between rounds.
	maxGain := 3 + len(data)%5
	q := newBuckets(maxGain)
	for round := 0; round < 2; round++ {
		q.reset()
		rq := newSliceBuckets(maxGain)
		cur := make([]int, n)
		for i, x := range data {
			v, g := (int(x)+i)%n, int(x)%(2*maxGain+1)-maxGain
			if int(x)%7 == round {
				valid := func(v, g int) bool { return cur[v] == g && (v+g+i)%5 != 0 }
				gv, gok := q.pop(valid)
				wv, wok := rq.pop(valid)
				if gv != wv || gok != wok {
					t.Fatalf("round %d op %d: pop %d,%v, the slice queue pops %d,%v", round, i, gv, gok, wv, wok)
				}
				continue
			}
			cur[v] = g
			q.push(v, g)
			rq.push(v, g)
		}
		for {
			valid := func(v, g int) bool { return cur[v] == g }
			gv, gok := q.pop(valid)
			wv, wok := rq.pop(valid)
			if gv != wv || gok != wok {
				t.Fatalf("round %d drain: pop %d,%v, the slice queue pops %d,%v", round, gv, gok, wv, wok)
			}
			if !gok {
				break
			}
		}
	}

	// Passes: the same kept gain, move sequence and partition, pass
	// after pass, with the production queue and sequence reused.
	s, err = cutstate.New(h, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref, err = cutstate.New(h, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	locked, gain := make([]bool, n), make([]int, n)
	rlocked, rgain := make([]bool, n), make([]int, n)
	bq := newBuckets(h.MaxVertexDegree())
	var seq []int
	for pass := 0; pass < maxPasses; pass++ {
		var kept int
		kept, seq = runPass(s, minSide, fixed, locked, gain, bq, seq[:0])
		rkept, rseq := referencePass(ref, minSide, fixed, rlocked, rgain)
		if kept != rkept || len(seq) != len(rseq) {
			t.Fatalf("pass %d: kept %d over %d moves, the reference %d over %d", pass, kept, len(seq), rkept, len(rseq))
		}
		for i := range seq {
			if seq[i] != rseq[i] {
				t.Fatalf("pass %d: move %d is %d, the reference moves %d", pass, i, seq[i], rseq[i])
			}
		}
		for v := 0; v < n; v++ {
			if s.Side(v) != ref.Side(v) {
				t.Fatalf("pass %d: vertex %d on %v, the reference on %v", pass, v, s.Side(v), ref.Side(v))
			}
		}
		if kept <= 0 {
			break
		}
	}
}

func TestPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 20+rng.Intn(300))
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}

func FuzzPassMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte{29, 0, 0, 1, 2, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 3, 9, 27, 81, 243, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		checkAgainstReference(t, data)
	})
}
