package netio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fasthgp/internal/hypergraph"
	"fasthgp/internal/partition"
)

// readFixedReference is the reference netlist parser: every line goes
// through strings.TrimSpace + strings.Fields, every net gets its own
// duplicate-pin map, and module ids are assigned after the scan. The
// one-pass ReadFixed must accept and reject exactly what it does, with
// the same error text, and build an identical hypergraph and fixed
// slice; the differential and fuzz suites hold it to that.
func readFixedReference(r io.Reader) (*hypergraph.Hypergraph, []int8, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)

	moduleID := map[string]int{}
	var moduleNames []string
	var moduleWeights []int64
	netID := map[string]int{}
	type netDecl struct {
		name   string
		pins   []string
		weight int64
	}
	var nets []netDecl
	fixedOf := map[string]int8{}
	var fixedOrder []string

	module := func(name string) int {
		if id, ok := moduleID[name]; ok {
			return id
		}
		id := len(moduleNames)
		moduleID[name] = id
		moduleNames = append(moduleNames, name)
		moduleWeights = append(moduleWeights, 1)
		return id
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "module":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, nil, fmt.Errorf("netio: line %d: module wants a name and optional weight", lineNo)
			}
			id := module(fields[1])
			if len(fields) == 3 {
				w, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil || w < 0 {
					return nil, nil, fmt.Errorf("netio: line %d: bad module weight %q", lineNo, fields[2])
				}
				moduleWeights[id] = w
			}
		case "net":
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("netio: line %d: net wants a name and at least one pin", lineNo)
			}
			name := fields[1]
			if _, dup := netID[name]; dup {
				return nil, nil, fmt.Errorf("netio: line %d: duplicate net %q", lineNo, name)
			}
			pins := fields[2:]
			seen := make(map[string]bool, len(pins))
			for _, p := range pins {
				if seen[p] {
					return nil, nil, fmt.Errorf("netio: line %d: net %q lists pin %q twice", lineNo, name, p)
				}
				seen[p] = true
			}
			netID[name] = len(nets)
			nets = append(nets, netDecl{name: name, pins: pins, weight: 1})
		case "netweight":
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("netio: line %d: netweight wants a name and a weight", lineNo)
			}
			id, ok := netID[fields[1]]
			if !ok {
				return nil, nil, fmt.Errorf("netio: line %d: netweight for undeclared net %q", lineNo, fields[1])
			}
			w, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || w < 0 {
				return nil, nil, fmt.Errorf("netio: line %d: bad net weight %q", lineNo, fields[2])
			}
			nets[id].weight = w
		case "fixed":
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("netio: line %d: fixed wants a module and a side", lineNo)
			}
			side, err := parseSideReference(fields[2])
			if err != nil {
				return nil, nil, fmt.Errorf("netio: line %d: %v", lineNo, err)
			}
			name := fields[1]
			if _, dup := fixedOf[name]; dup {
				return nil, nil, fmt.Errorf("netio: line %d: module %q fixed twice", lineNo, name)
			}
			fixedOf[name] = side
			fixedOrder = append(fixedOrder, name)
		default:
			return nil, nil, fmt.Errorf("netio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("netio: %w", err)
	}

	// Register net pins in order so indices are reproducible.
	for i := range nets {
		for _, p := range nets[i].pins {
			module(p)
		}
	}
	b := hypergraph.NewBuilder(len(moduleNames))
	for id, name := range moduleNames {
		b.SetVertexName(id, name)
		b.SetVertexWeight(id, moduleWeights[id])
	}
	for _, nd := range nets {
		pins := make([]int, len(nd.pins))
		for i, p := range nd.pins {
			pins[i] = moduleID[p]
		}
		e := b.AddEdge(pins...)
		b.SetEdgeName(e, nd.name)
		b.SetEdgeWeight(e, nd.weight)
	}
	h, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("netio: %w", err)
	}
	var fixed []int8
	if len(fixedOf) > 0 {
		fixed = make([]int8, h.NumVertices())
		for v := range fixed {
			fixed[v] = partition.FreeVertex
		}
		for _, name := range fixedOrder {
			id, ok := moduleID[name]
			if !ok {
				return nil, nil, fmt.Errorf("netio: fixed directive names unknown module %q", name)
			}
			fixed[id] = fixedOf[name]
		}
	}
	return h, fixed, nil
}

// parseSideReference parses a fixed-directive side token: L/l and R/r
// for the two bisection sides, or a bare part id in [0, 127].
func parseSideReference(tok string) (int8, error) {
	switch tok {
	case "L", "l":
		return 0, nil
	case "R", "r":
		return 1, nil
	}
	v, err := strconv.ParseInt(tok, 10, 8)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad fixed side %q (want L, R, or a part id)", tok)
	}
	return int8(v), nil
}
