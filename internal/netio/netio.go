// Package netio reads and writes netlists in a simple line-oriented
// text format, so the command-line tools can exchange hypergraphs:
//
//	# comment
//	module <name> [weight]        # optional pre-registration
//	net <name> <module> ...       # pins; unknown modules auto-register
//	netweight <name> <weight>     # optional net weight
//	fixed <name> <L|R|part-id>    # optional fixed-vertex pin
//
// Module and net names are arbitrary whitespace-free tokens. Modules
// referenced only in net lines get weight 1. Modules declared on module
// lines take the first ids, in first-declaration order; modules named
// only in nets follow, in first-pin order. Nets are numbered in order.
// Write declares every module first, so write→read round-trips keep
// every index.
// The fixed directive pins a module to a partition side — L (or 0)
// and R (or 1) for bisection, larger part ids for K-way; ReadFixed
// surfaces the assignment, plain Read parses and discards it.
package netio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// Read parses a netlist from r. Fixed-vertex directives are accepted
// and discarded; use ReadFixed to surface them.
func Read(r io.Reader) (*hypergraph.Hypergraph, error) {
	h, _, err := ReadFixed(r)
	return h, err
}

// ReadFixed parses a netlist from r along with its fixed-vertex
// assignment: fixed[v] is the pinned side of module v, or
// partition.FreeVertex (−1) when free. The slice is nil when the input
// carries no fixed directive at all.
//
// It makes one pass over byte views of the input (readerLines,
// cutField): no line or token is materialized, each distinct name is
// copied once into the interner's arena, and duplicate pins are caught
// by a per-module stamp. Modules are numbered on first sight and
// renumbered once at the end to the id rule above: modules declared on
// module lines first, in first-declaration order, then modules named
// only in nets, in first-pin order.
func ReadFixed(r io.Reader) (*hypergraph.Hypergraph, []int8, error) {
	p := netlistParser{in: newInterner()}
	if err := p.scan(newReaderLines(r)); err != nil {
		return nil, nil, err
	}
	return p.build()
}

// netlistParser is ReadFixed's state. Modules carry their first-sight
// id until build renumbers them.
type netlistParser struct {
	in         *interner
	mods, nets nameIndex
	modules    []moduleState // by first-sight id
	declared   []int         // first-sight ids, in first-declaration order
	pinned     []int         // first-sight ids, in first-pin order
	fixed      []int         // first-sight ids, in fixed-directive order
	pins       []int         // every net's pins (first-sight ids), in net order
	netEnds    []int         // netEnds[e]: end of net e's pins in pins
	netWeights []int64
}

// moduleState is what the scan knows of one module name. A name seen
// only in fixed directives is neither declared nor pinned: it names no
// module.
type moduleState struct {
	weight   int64
	seenAt   int  // 1 + the last net that listed it: the duplicate-pin stamp
	declared bool // named on a module line
	pinned   bool // listed by a net
	side     int8 // the fixed side, or partition.FreeVertex
}

// module returns the first-sight id of name, registering it.
func (p *netlistParser) module(name []byte) int {
	id, added := p.in.intern(&p.mods, name)
	if added {
		p.modules = append(p.modules, moduleState{weight: 1, side: partition.FreeVertex})
	}
	return id
}

// scan reads every line, returning the first malformed line's error or
// a read error.
func (p *netlistParser) scan(ls lineSource) error {
	for lineNo := 1; ; lineNo++ {
		line, err := ls.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("netio: %w", err)
		}
		directive, rest := cutField(line)
		if directive == nil || directive[0] == '#' {
			continue
		}
		// Three fields are cut up front; only a net's pins run past them.
		f1, pinList := cutField(rest)
		f2, rest := cutField(pinList)
		f3, _ := cutField(rest)
		switch string(directive) {
		case "module":
			if f1 == nil || f3 != nil {
				return fmt.Errorf("netio: line %d: module wants a name and optional weight", lineNo)
			}
			id := p.module(f1)
			m := &p.modules[id]
			if !m.declared {
				m.declared = true
				p.declared = append(p.declared, id)
			}
			if f2 != nil {
				w, ok := parseInt64Bytes(f2)
				if !ok || w < 0 {
					return fmt.Errorf("netio: line %d: bad module weight %q", lineNo, f2)
				}
				m.weight = w
			}
		case "net":
			if f2 == nil {
				return fmt.Errorf("netio: line %d: net wants a name and at least one pin", lineNo)
			}
			e, added := p.in.intern(&p.nets, f1)
			if !added {
				return fmt.Errorf("netio: line %d: duplicate net %q", lineNo, f1)
			}
			for {
				tok, more := cutField(pinList)
				if tok == nil {
					break
				}
				pinList = more
				id := p.module(tok)
				m := &p.modules[id]
				if m.seenAt == e+1 {
					return fmt.Errorf("netio: line %d: net %q lists pin %q twice", lineNo, f1, tok)
				}
				m.seenAt = e + 1
				if !m.pinned {
					m.pinned = true
					p.pinned = append(p.pinned, id)
				}
				p.pins = append(p.pins, id)
			}
			p.netEnds = append(p.netEnds, len(p.pins))
			p.netWeights = append(p.netWeights, 1)
		case "netweight":
			if f2 == nil || f3 != nil {
				return fmt.Errorf("netio: line %d: netweight wants a name and a weight", lineNo)
			}
			e := p.in.lookup(&p.nets, f1)
			if e < 0 {
				return fmt.Errorf("netio: line %d: netweight for undeclared net %q", lineNo, f1)
			}
			w, ok := parseInt64Bytes(f2)
			if !ok || w < 0 {
				return fmt.Errorf("netio: line %d: bad net weight %q", lineNo, f2)
			}
			p.netWeights[e] = w
		case "fixed":
			if f2 == nil || f3 != nil {
				return fmt.Errorf("netio: line %d: fixed wants a module and a side", lineNo)
			}
			side, err := parseSide(f2)
			if err != nil {
				return fmt.Errorf("netio: line %d: %v", lineNo, err)
			}
			id := p.module(f1)
			m := &p.modules[id]
			if m.side != partition.FreeVertex {
				return fmt.Errorf("netio: line %d: module %q fixed twice", lineNo, f1)
			}
			m.side = side
			p.fixed = append(p.fixed, id)
		default:
			return fmt.Errorf("netio: line %d: unknown directive %q", lineNo, directive)
		}
	}
}

// build renumbers the modules to their final ids and assembles the
// hypergraph and fixed slice.
func (p *netlistParser) build() (*hypergraph.Hypergraph, []int8, error) {
	final := make([]int, len(p.modules))
	n := 0
	for _, id := range p.declared {
		final[id] = n
		n++
	}
	for _, id := range p.pinned {
		if !p.modules[id].declared {
			final[id] = n
			n++
		}
	}
	for _, id := range p.fixed {
		if m := p.modules[id]; !m.declared && !m.pinned {
			return nil, nil, fmt.Errorf("netio: fixed directive names unknown module %q", p.in.name(&p.mods, id))
		}
	}
	// Every name is now a module. The renumbering is the identity when
	// the modules are declared first, in order, as Write emits them.
	for id, v := range final {
		if v != id {
			for i, id := range p.pins {
				p.pins[i] = final[id]
			}
			break
		}
	}

	names := string(p.in.arena)
	nameOf := func(ix *nameIndex, id int) string {
		k := ix.keys[id]
		return names[k.start:k.end]
	}
	b := hypergraph.NewBuilder(n)
	b.Grow(len(p.netEnds), len(p.pins))
	for id, m := range p.modules {
		b.SetVertexName(final[id], nameOf(&p.mods, id))
		b.SetVertexWeight(final[id], m.weight)
	}
	start := 0
	for e, end := range p.netEnds {
		b.AddEdge(p.pins[start:end]...)
		b.SetEdgeName(e, nameOf(&p.nets, e))
		b.SetEdgeWeight(e, p.netWeights[e])
		start = end
	}
	h, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("netio: %w", err)
	}
	var fixed []int8
	if len(p.fixed) > 0 {
		fixed = make([]int8, n)
		for v := range fixed {
			fixed[v] = partition.FreeVertex
		}
		for _, id := range p.fixed {
			fixed[final[id]] = p.modules[id].side
		}
	}
	return h, fixed, nil
}

// parseSide parses a fixed-directive side token: L/l and R/r for the
// two bisection sides, or a bare part id in [0, 127].
func parseSide(tok []byte) (int8, error) {
	switch string(tok) {
	case "L", "l":
		return 0, nil
	case "R", "r":
		return 1, nil
	}
	v, ok := parseInt64Bytes(tok)
	if !ok || v < 0 || v > math.MaxInt8 {
		return 0, fmt.Errorf("bad fixed side %q (want L, R, or a part id)", tok)
	}
	return int8(v), nil
}

// Write emits h in the netio format: every module is declared first, in
// id order, so indices round-trip; then each net with its pins in
// hypergraph order. Names are written as tokens (see token), and an
// unnamed module or net as its synthesized v<i> or e<i> name. Write
// refuses text that would not read back as h: when two modules or two
// nets would write the same token it fails before writing anything,
// and it stops with an error at a line that would reach ReadFixed's
// line cap.
func Write(w io.Writer, h *hypergraph.Hypergraph) error {
	return WriteFixed(w, h, nil)
}

// errLineCap is why Write refuses a line the reader would reject.
var errLineCap = fmt.Errorf("lines must be shorter than %d bytes to read back", maxHMetisLine)

// WriteFixed is Write plus fixed directives for every pinned module in
// fixed (entries of partition.FreeVertex are skipped; a nil slice emits
// none). ReadFixed round-trips the assignment.
func WriteFixed(w io.Writer, h *hypergraph.Hypergraph, fixed []int8) error {
	in := newInterner()
	var mods, nets nameIndex
	var tok []byte
	for v := 0; v < h.NumVertices(); v++ {
		tok = appendToken(tok[:0], h.HasNames(), h.VertexName, 'v', v)
		if u, added := in.intern(&mods, tok); !added {
			return fmt.Errorf("netio: modules %d (%q) and %d (%q) both write as %q", u, h.VertexName(u), v, h.VertexName(v), tok)
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		tok = appendToken(tok[:0], h.HasNames(), h.EdgeName, 'e', e)
		if d, added := in.intern(&nets, tok); !added {
			return fmt.Errorf("netio: nets %d (%q) and %d (%q) both write as %q", d, h.EdgeName(d), e, h.EdgeName(e), tok)
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# netlist: %d modules, %d nets\n", h.NumVertices(), h.NumEdges())
	// Each line is built in ln, then written once its length is known.
	var ln []byte
	emit := func(item string, i int) error {
		if len(ln) >= maxHMetisLine {
			return fmt.Errorf("netio: %s %d writes a %d-byte line; %w", item, i, len(ln), errLineCap)
		}
		bw.Write(append(ln, '\n'))
		return nil
	}
	for v := 0; v < h.NumVertices(); v++ {
		ln = append(append(ln[:0], "module "...), in.name(&mods, v)...)
		if wt := h.VertexWeight(v); wt != 1 {
			ln = strconv.AppendInt(append(ln, ' '), wt, 10)
		}
		if err := emit("module", v); err != nil {
			return err
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		ln = append(append(ln[:0], "net "...), in.name(&nets, e)...)
		for _, v := range h.EdgePins(e) {
			ln = append(append(ln, ' '), in.name(&mods, v)...)
		}
		if err := emit("net", e); err != nil {
			return err
		}
		if wt := h.EdgeWeight(e); wt != 1 {
			ln = append(append(ln[:0], "netweight "...), in.name(&nets, e)...)
			ln = strconv.AppendInt(append(ln, ' '), wt, 10)
			if err := emit("net", e); err != nil {
				return err
			}
		}
	}
	for v := 0; v < h.NumVertices() && v < len(fixed); v++ {
		f := fixed[v]
		if f < 0 {
			continue
		}
		ln = append(append(ln[:0], "fixed "...), in.name(&mods, v)...)
		switch f {
		case 0:
			ln = append(ln, " L"...)
		case 1:
			ln = append(ln, " R"...)
		default:
			ln = strconv.AppendInt(append(ln, ' '), int64(f), 10)
		}
		if err := emit("module", v); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("netio: %w", err)
	}
	return nil
}

// appendToken appends the token Write emits for item i: its name made a
// token, or prefix followed by i when the hypergraph carries no names
// (the name VertexName and EdgeName synthesize, without formatting it).
func appendToken(dst []byte, named bool, name func(int) string, prefix byte, i int) []byte {
	if !named {
		return strconv.AppendInt(append(dst, prefix), int64(i), 10)
	}
	return append(dst, token(name(i))...)
}

// token sanitizes a name into a whitespace-free token. Every Unicode
// space (not just ASCII blanks — strings.Fields splits on \v, \f, \r,
// NBSP, …) maps to '_' so a written name always reads back as one
// field.
func token(s string) string {
	if strings.IndexFunc(s, unicode.IsSpace) < 0 {
		return s
	}
	return strings.Map(func(r rune) rune {
		if unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, s)
}

// SortedModuleNames returns all module names, sorted; a convenience for
// stable CLI output.
func SortedModuleNames(h *hypergraph.Hypergraph) []string {
	names := make([]string, h.NumVertices())
	for v := range names {
		names[v] = h.VertexName(v)
	}
	sort.Strings(names)
	return names
}
