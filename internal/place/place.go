// Package place implements min-cut placement in the style of Breuer
// (reference [4] of the paper): the netlist hypergraph is recursively
// bipartitioned onto a grid of slots, and quality is measured with the
// bounding-box (half-perimeter) net model the paper's introduction
// names as the standard objective. Terminal propagation
// (Dunlop–Kernighan, reference [8]) is available as an option: nets
// with pins outside the region being split contribute a fixed anchor on
// the side nearer those external pins.
//
// Each recursive cut runs Algorithm I (package core) for the initial
// split and refines it with Fiduccia–Mattheyses — the composition the
// paper's speed argument enables: a provably-good O(n²) initial cut
// makes the refinement cheap.
package place

import (
	"fmt"
	"math/rand"

	"fasthgp/internal/core"
	"fasthgp/internal/fm"
	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// Placement assigns each module a slot on a Rows×Cols grid. Multiple
// modules may share a slot (slots are bins, not sites).
type Placement struct {
	// Rows and Cols are the grid dimensions.
	Rows, Cols int
	// X and Y are the slot coordinates of each module
	// (0 ≤ X < Cols, 0 ≤ Y < Rows).
	X, Y []int
}

// starts is the Algorithm I multi-start count per cut.
const starts = 5

// Options configures MinCutPlace.
type Options struct {
	// Rows and Cols set the slot grid (defaults 4×4). Powers of two
	// give the evenest recursive splits.
	Rows, Cols int
	// TerminalPropagation enables Dunlop–Kernighan anchors.
	TerminalPropagation bool
	// Seed makes the placement deterministic.
	Seed int64
}

func (o *Options) defaults() {
	if o.Rows <= 0 {
		o.Rows = 4
	}
	if o.Cols <= 0 {
		o.Cols = 4
	}
}

// MinCutPlace places h by recursive min-cut bipartitioning.
func MinCutPlace(h *hypergraph.Hypergraph, opts Options) (*Placement, error) {
	opts.defaults()
	n := h.NumVertices()
	if n == 0 {
		return &Placement{Rows: opts.Rows, Cols: opts.Cols}, nil
	}
	pl := &Placement{
		Rows: opts.Rows,
		Cols: opts.Cols,
		X:    make([]int, n),
		Y:    make([]int, n),
	}
	p := &placer{
		h:    h,
		pl:   pl,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		cx:   make([]float64, n),
		cy:   make([]float64, n),
	}
	all := make([]int, n)
	for v := range all {
		all[v] = v
		p.cx[v] = float64(opts.Cols) / 2
		p.cy[v] = float64(opts.Rows) / 2
	}
	p.recurse(all, 0, opts.Cols, 0, opts.Rows)
	return pl, nil
}

type placer struct {
	h    *hypergraph.Hypergraph
	pl   *Placement
	opts Options
	rng  *rand.Rand
	// cx, cy track the current region center of every module, for
	// terminal propagation.
	cx, cy []float64
}

// recurse places modules into the slot box [x0,x1)×[y0,y1).
func (p *placer) recurse(modules []int, x0, x1, y0, y1 int) {
	if len(modules) == 0 {
		return
	}
	if x1-x0 <= 1 && y1-y0 <= 1 {
		for _, m := range modules {
			p.pl.X[m] = x0
			p.pl.Y[m] = y0
		}
		return
	}
	vertical := x1-x0 >= y1-y0 // split the wider dimension
	left, right := p.split(modules, vertical, x0, x1, y0, y1)
	if vertical {
		xm := (x0 + x1) / 2
		p.setCenters(left, x0, xm, y0, y1)
		p.setCenters(right, xm, x1, y0, y1)
		p.recurse(left, x0, xm, y0, y1)
		p.recurse(right, xm, x1, y0, y1)
	} else {
		ym := (y0 + y1) / 2
		p.setCenters(left, x0, x1, y0, ym)
		p.setCenters(right, x0, x1, ym, y1)
		p.recurse(left, x0, x1, y0, ym)
		p.recurse(right, x0, x1, ym, y1)
	}
}

func (p *placer) setCenters(modules []int, x0, x1, y0, y1 int) {
	for _, m := range modules {
		p.cx[m] = (float64(x0) + float64(x1)) / 2
		p.cy[m] = (float64(y0) + float64(y1)) / 2
	}
}

// split bipartitions the module set of a region, returning the module
// lists destined for the low (left/top) and high halves.
func (p *placer) split(modules []int, vertical bool, x0, x1, y0, y1 int) (lo, hi []int) {
	if len(modules) == 1 {
		return modules, nil
	}
	sub, anchors := p.buildSubproblem(modules, vertical, x0, x1, y0, y1)

	var sides *partition.Bipartition
	res, err := core.Bipartition(sub, core.Options{
		Starts:     starts,
		Seed:       p.rng.Int63(),
		Completion: core.CompletionWeighted,
	})
	if err == nil {
		sides = res.Partition
	} else {
		// Tiny degenerate region: alternate assignment.
		sides = partition.New(sub.NumVertices())
		for i := 0; i < sub.NumVertices(); i++ {
			if i%2 == 0 {
				sides.Assign(i, partition.Left)
			} else {
				sides.Assign(i, partition.Right)
			}
		}
	}
	// Pin anchors to their sides, then refine with FM.
	pins := partition.Constraint{FixedSide: make([]int8, sub.NumVertices())}
	for v := range pins.FixedSide {
		pins.FixedSide[v] = partition.FreeVertex
	}
	for av, side := range anchors {
		pins.FixedSide[av] = int8(side)
		sides.Assign(av, side)
	}
	if sub.NumVertices() >= 2 {
		if l, r, _ := sides.Counts(); l > 0 && r > 0 {
			if _, err := fm.Improve(sub, sides, fm.Options{Constraint: pins}); err != nil {
				// Refinement is best-effort; the initial split stands.
				_ = err
			}
		}
	}
	for i, m := range modules {
		if sides.Side(i) == partition.Left {
			lo = append(lo, m)
		} else {
			hi = append(hi, m)
		}
	}
	// Guarantee progress: never return an empty half for a splittable
	// region.
	if len(lo) == 0 {
		lo = append(lo, hi[len(hi)-1])
		hi = hi[:len(hi)-1]
	} else if len(hi) == 0 {
		hi = append(hi, lo[len(lo)-1])
		lo = lo[:len(lo)-1]
	}
	return lo, hi
}

// buildSubproblem induces the region hypergraph: sub-vertex i is
// modules[i]; with terminal propagation, nets that also have pins
// outside the region receive an extra zero-weight anchor vertex on the
// side (returned in anchors) nearer the external pins' centroid.
func (p *placer) buildSubproblem(modules []int, vertical bool, x0, x1, y0, y1 int) (*hypergraph.Hypergraph, map[int]partition.Side) {
	h := p.h
	inRegion := make(map[int]int, len(modules)) // module → sub-vertex
	for i, m := range modules {
		inRegion[m] = i
	}
	type netInfo struct {
		pins     []int
		external []int
	}
	seen := map[int]*netInfo{}
	var order []int
	for _, m := range modules {
		for _, e := range h.VertexEdges(m) {
			if _, ok := seen[e]; !ok {
				ni := &netInfo{}
				for _, v := range h.EdgePins(e) {
					if sv, ok := inRegion[v]; ok {
						ni.pins = append(ni.pins, sv)
					} else {
						ni.external = append(ni.external, v)
					}
				}
				seen[e] = ni
				order = append(order, e)
			}
		}
	}

	anchors := map[int]partition.Side{}
	numAnchors := 0
	if p.opts.TerminalPropagation {
		for _, e := range order {
			ni := seen[e]
			if len(ni.pins) >= 1 && len(ni.external) > 0 {
				numAnchors++
			}
		}
	}
	b := hypergraph.NewBuilder(len(modules) + numAnchors)
	for i, m := range modules {
		b.SetVertexWeight(i, h.VertexWeight(m))
	}
	nextAnchor := len(modules)
	var mid float64
	if vertical {
		mid = (float64(x0) + float64(x1)) / 2
	} else {
		mid = (float64(y0) + float64(y1)) / 2
	}
	for _, e := range order {
		ni := seen[e]
		pins := ni.pins
		if p.opts.TerminalPropagation && len(pins) >= 1 && len(ni.external) > 0 {
			// Anchor on the side of the external centroid.
			var c float64
			for _, v := range ni.external {
				if vertical {
					c += p.cx[v]
				} else {
					c += p.cy[v]
				}
			}
			c /= float64(len(ni.external))
			av := nextAnchor
			nextAnchor++
			b.SetVertexWeight(av, 0)
			if c < mid {
				anchors[av] = partition.Left
			} else {
				anchors[av] = partition.Right
			}
			pins = append(append([]int(nil), pins...), av)
		}
		if len(pins) >= 2 {
			ne := b.AddEdge(pins...)
			b.SetEdgeWeight(ne, h.EdgeWeight(e))
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic("place: subproblem build: " + err.Error())
	}
	return sub, anchors
}

// RandomPlace scatters modules uniformly over the grid.
func RandomPlace(h *hypergraph.Hypergraph, rows, cols int, rng *rand.Rand) (*Placement, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("place: grid %dx%d invalid", rows, cols)
	}
	n := h.NumVertices()
	pl := &Placement{Rows: rows, Cols: cols, X: make([]int, n), Y: make([]int, n)}
	for v := 0; v < n; v++ {
		pl.X[v] = rng.Intn(cols)
		pl.Y[v] = rng.Intn(rows)
	}
	return pl, nil
}

// HPWL returns the total half-perimeter wirelength of the placement
// under the bounding-box net model, weighted by net weights.
func HPWL(h *hypergraph.Hypergraph, pl *Placement) int64 {
	var total int64
	for e := 0; e < h.NumEdges(); e++ {
		pins := h.EdgePins(e)
		if len(pins) < 2 {
			continue
		}
		minX, maxX := pl.X[pins[0]], pl.X[pins[0]]
		minY, maxY := pl.Y[pins[0]], pl.Y[pins[0]]
		for _, v := range pins[1:] {
			if pl.X[v] < minX {
				minX = pl.X[v]
			}
			if pl.X[v] > maxX {
				maxX = pl.X[v]
			}
			if pl.Y[v] < minY {
				minY = pl.Y[v]
			}
			if pl.Y[v] > maxY {
				maxY = pl.Y[v]
			}
		}
		total += h.EdgeWeight(e) * int64((maxX-minX)+(maxY-minY))
	}
	return total
}

// Validate checks that every module has in-range coordinates.
func (pl *Placement) Validate() error {
	if len(pl.X) != len(pl.Y) {
		return fmt.Errorf("place: X/Y length mismatch")
	}
	for v := range pl.X {
		if pl.X[v] < 0 || pl.X[v] >= pl.Cols || pl.Y[v] < 0 || pl.Y[v] >= pl.Rows {
			return fmt.Errorf("place: module %d at (%d,%d) outside %dx%d grid", v, pl.X[v], pl.Y[v], pl.Cols, pl.Rows)
		}
	}
	return nil
}
