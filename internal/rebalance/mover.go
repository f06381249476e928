package rebalance

import (
	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// mover makes the repair loops' greedy choice incrementally. Among the
// free vertices of positive weight at most a ceiling on the side being
// drained, it picks the highest cut gain, then the heaviest, then the
// lowest index — without rescanning the vertices for every move:
//
//   - a side's gains come from cutstate.Gain once, the first time that
//     side is drained, and afterwards from the Fiduccia–Mattheyses
//     deltas of each move (cutstate.MoveWithGainDeltas);
//   - each side keeps a lazy max-heap in exactly the choice order, so
//     ties resolve as a full scan would; an entry whose vertex has
//     since changed side or gain is stale and skipped at the top;
//   - a top heavier than the ceiling is dropped for good. That is
//     exact because both repair loops only ever lower their ceiling.
//
// A repair thus costs O(pins + Σ gain updates · log n) rather than a
// scan's O(pins) per move.
type mover struct {
	s    *cutstate.State
	gain []int
	// dead marks vertices that can never move: fixed, weightless, or
	// heavier than a ceiling already passed.
	dead  []bool
	heaps [2]gainHeap
	// built[side] reports whether that side's heap exists; until then
	// its gains are not tracked.
	built [2]bool
	count [2]int // vertices per side
	// work counts gain evaluations plus heap pushes.
	work int
	// check, when non-nil, sees every choice before it is made; tests
	// hold the choices to the reference scans through it.
	check func(s *cutstate.State, v int)
}

func newMover(h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []int8, check func(s *cutstate.State, v int)) (*mover, error) {
	s, err := cutstate.New(h, p)
	if err != nil {
		return nil, err
	}
	m := &mover{
		s:     s,
		gain:  make([]int, h.NumVertices()),
		dead:  make([]bool, h.NumVertices()),
		check: check,
	}
	for v := range m.dead {
		m.dead[v] = h.VertexWeight(v) == 0 || (v < len(fixed) && fixed[v] >= 0)
	}
	l, r, _ := p.Counts()
	m.count = [2]int{l, r}
	return m, nil
}

// best returns the vertex to move off side from: the first in choice
// order among its movable vertices weighing at most maxW, or −1 when
// there is none or moving it would empty the side.
func (m *mover) best(from partition.Side, maxW int64) int {
	v := m.top(from, maxW)
	if m.check != nil {
		m.check(m.s, v)
	}
	return v
}

func (m *mover) top(from partition.Side, maxW int64) int {
	if m.count[from] <= 1 {
		return -1
	}
	if !m.built[from] {
		m.build(from)
	}
	q := &m.heaps[from]
	for len(*q) > 0 {
		e := (*q)[0]
		switch {
		case m.dead[e.v] || m.s.Side(e.v) != from || m.gain[e.v] != e.gain:
			// Stale.
		case e.w > maxW:
			m.dead[e.v] = true
		default:
			return e.v
		}
		q.pop()
	}
	return -1
}

// build starts tracking the gains of side's movable vertices.
func (m *mover) build(side partition.Side) {
	h := m.s.Hypergraph()
	var q gainHeap
	for v, dead := range m.dead {
		if dead || m.s.Side(v) != side {
			continue
		}
		m.gain[v] = m.s.Gain(v)
		q = append(q, heapEntry{m.gain[v], h.VertexWeight(v), v})
	}
	q.init()
	m.heaps[side] = q
	m.built[side] = true
	m.work += 2 * len(q)
}

// move moves v to the other side, keeping the tracked gains, heaps and
// side counts current.
func (m *mover) move(v int) {
	from := m.s.Side(v)
	to := from.Opposite()
	m.s.MoveWithGainDeltas(v, m.bump)
	m.count[from]--
	m.count[to]++
	m.gain[v] = -m.gain[v]
	if m.built[to] {
		m.push(to, v)
	}
}

func (m *mover) bump(u, d int) {
	side := m.s.Side(u)
	if m.dead[u] || !m.built[side] {
		return
	}
	m.gain[u] += d
	m.push(side, u)
}

func (m *mover) push(side partition.Side, v int) {
	m.heaps[side].push(heapEntry{m.gain[v], m.s.Hypergraph().VertexWeight(v), v})
	m.work++
}

// heapEntry is a vertex with the gain it had when queued.
type heapEntry struct {
	gain int
	w    int64
	v    int
}

// before is the choice order: higher gain, then heavier, then lower
// index.
func (a heapEntry) before(b heapEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.w != b.w {
		return a.w > b.w
	}
	return a.v < b.v
}

// gainHeap is a binary heap with the first entry in choice order on
// top. It is hand-rolled because container/heap would box every
// pushed entry in an interface.
type gainHeap []heapEntry

func (q gainHeap) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *gainHeap) push(e heapEntry) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *gainHeap) pop() {
	h := *q
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	q.down(0)
}

func (q gainHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}
