package rebalance

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fasthgp/internal/cutstate"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// Order is the repair's tie-break order over a hypergraph's vertices:
// heavier first, then lower index. It depends on the hypergraph alone,
// so a caller repairing many partitions of one hypergraph builds it
// once with NewOrder and passes it to every EnforceOrdered call. It is
// read-only once built, so concurrent repairs may share it.
type Order struct {
	n int
	// rank[v] is v's place in the order and vertex[r] the vertex in
	// place r; both are nil when the order is the identity (all
	// weights equal).
	rank, vertex []uint32
}

// NewOrder returns h's vertex order for the repair: O(n) when every
// vertex weighs the same, one sort otherwise.
func NewOrder(h *hypergraph.Hypergraph) *Order {
	n := h.NumVertices()
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("rebalance: %d vertices overflow a 32-bit rank", n))
	}
	o := &Order{n: n}
	uniform := true
	for v := 1; v < n && uniform; v++ {
		uniform = h.VertexWeight(v) == h.VertexWeight(0)
	}
	if uniform {
		return o
	}
	o.vertex = make([]uint32, n)
	for v := range o.vertex {
		o.vertex[v] = uint32(v)
	}
	slices.SortFunc(o.vertex, func(a, b uint32) int {
		if c := cmp.Compare(h.VertexWeight(int(b)), h.VertexWeight(int(a))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	o.rank = make([]uint32, n)
	for r, v := range o.vertex {
		o.rank[v] = uint32(r)
	}
	return o
}

// key packs (gain, v) into one heap key whose numeric order is the
// choice order: higher gain, then earlier in o (heavier, then lower
// index). The high word is gain + 2³¹ (the sign bit flipped), the low
// word v's rank complemented. Gains are bounded by vertex degree, so
// they fit 32 bits.
func (o *Order) key(v, gain int) uint64 {
	r := uint32(v)
	if o.rank != nil {
		r = o.rank[v]
	}
	return uint64(uint32(gain)^1<<31)<<32 | uint64(^r)
}

// entry unpacks a key into its vertex and gain.
func (o *Order) entry(key uint64) (v, gain int) {
	r := ^uint32(key)
	v = int(r)
	if o.vertex != nil {
		v = int(o.vertex[r])
	}
	return v, int(int32(uint32(key>>32) ^ 1<<31))
}

// mover makes the repair loops' greedy choice incrementally. Among the
// free vertices of positive weight at most a ceiling on the side being
// drained, it picks the highest cut gain, then the heaviest, then the
// lowest index — without rescanning the vertices for every move:
//
//   - a side's gains come from cutstate.Gain once, the first time that
//     side is drained, and afterwards from the Fiduccia–Mattheyses
//     deltas of each move (cutstate.MoveWithGainDeltas), summed per
//     vertex so that a move queues each vertex whose gain changed once;
//   - each side keeps a lazy max-heap of packed (gain, Order rank) keys
//     in exactly the choice order, so ties resolve as a full scan
//     would; an entry whose vertex has since changed side or gain is
//     stale and skipped at the top;
//   - a top heavier than the ceiling is dropped for good. That is
//     exact because both repair loops only ever lower their ceiling.
//
// A repair thus costs O(pins + Σ gain updates · log n) rather than a
// scan's O(pins) per move.
type mover struct {
	s     *cutstate.State
	order *Order
	gain  []int
	// dead marks vertices that can never move: fixed, weightless, or
	// heavier than a ceiling already passed.
	dead  []bool
	heaps [2]keyHeap
	// built[side] reports whether that side's heap exists; until then
	// its gains are not tracked.
	built [2]bool
	count [2]int // vertices per side
	// touched lists, in first-touch order, the tracked vertices the
	// current move's deltas reached, and was their gains before it;
	// seen marks them.
	touched, was []int
	seen         []bool
	// work counts gain evaluations plus heap pushes.
	work int
	// check, when non-nil, sees every choice before it is made; tests
	// hold the choices to the reference scans through it.
	check func(s *cutstate.State, v int)
}

// newMover starts a repair of p. A nil order is built from h when the
// repair first needs it.
func newMover(h *hypergraph.Hypergraph, p *partition.Bipartition, fixed []int8, order *Order, check func(s *cutstate.State, v int)) (*mover, error) {
	if order != nil && order.n != h.NumVertices() {
		return nil, fmt.Errorf("order covers %d vertices, hypergraph has %d", order.n, h.NumVertices())
	}
	s, err := cutstate.New(h, p)
	if err != nil {
		return nil, err
	}
	m := &mover{
		s:     s,
		order: order,
		gain:  make([]int, h.NumVertices()),
		dead:  make([]bool, h.NumVertices()),
		seen:  make([]bool, h.NumVertices()),
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
	h := m.s.Hypergraph()
	q := &m.heaps[from]
	for len(*q) > 0 {
		v, gain := m.order.entry((*q)[0])
		switch {
		case m.dead[v] || m.s.Side(v) != from || m.gain[v] != gain:
			// Stale.
		case h.VertexWeight(v) > maxW:
			m.dead[v] = true
		default:
			return v
		}
		q.pop()
	}
	return -1
}

// build starts tracking the gains of side's movable vertices.
func (m *mover) build(side partition.Side) {
	if m.order == nil {
		m.order = NewOrder(m.s.Hypergraph())
	}
	q := make(keyHeap, 0, m.count[side])
	for v, dead := range m.dead {
		if dead || m.s.Side(v) != side {
			continue
		}
		m.gain[v] = m.s.Gain(v)
		q = append(q, m.order.key(v, m.gain[v]))
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
	// A vertex whose deltas summed to zero keeps its queued entry,
	// which is still valid.
	for i, u := range m.touched {
		m.seen[u] = false
		if m.gain[u] != m.was[i] {
			m.push(m.s.Side(u), u)
		}
	}
	m.touched, m.was = m.touched[:0], m.was[:0]
	m.count[from]--
	m.count[to]++
	m.gain[v] = -m.gain[v]
	if m.built[to] {
		m.push(to, v)
	}
}

func (m *mover) bump(u, d int) {
	if m.dead[u] || !m.built[m.s.Side(u)] {
		return
	}
	if !m.seen[u] {
		m.seen[u] = true
		m.touched = append(m.touched, u)
		m.was = append(m.was, m.gain[u])
	}
	m.gain[u] += d
}

func (m *mover) push(side partition.Side, v int) {
	m.heaps[side].push(m.order.key(v, m.gain[v]))
	m.work++
}

// keyHeap is a binary max-heap of packed keys, hand-rolled because
// container/heap would box every pushed key in an interface.
type keyHeap []uint64

func (q keyHeap) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *keyHeap) push(k uint64) {
	*q = append(*q, k)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[i] <= h[parent] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *keyHeap) pop() {
	h := *q
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	q.down(0)
}

func (q keyHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q[r] > q[c] {
			c = r
		}
		if q[c] <= q[i] {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}
