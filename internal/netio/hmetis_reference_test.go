package netio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fasthgp/internal/hypergraph"
)

// ReadHMetis is the reference hMETIS .hgr parser: every line goes
// through strings.TrimSpace + strings.Fields. The streaming parsers must
// accept and reject exactly what it does and build a structurally
// identical hypergraph; the differential and fuzz suites hold them to it.
func ReadHMetis(r io.Reader) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	next := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("netio: hmetis: missing header: %w", err)
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, fmt.Errorf("netio: hmetis: header wants 2 or 3 fields, got %d", len(header))
	}
	numEdges, err1 := strconv.Atoi(header[0])
	numVerts, err2 := strconv.Atoi(header[1])
	if err1 != nil || err2 != nil || numEdges < 0 || numVerts < 0 {
		return nil, fmt.Errorf("netio: hmetis: bad header %v", header)
	}
	if numEdges > MaxHMetisDeclared || numVerts > MaxHMetisDeclared {
		return nil, fmt.Errorf("netio: hmetis: header declares %d edges, %d vertices; limit %d", numEdges, numVerts, MaxHMetisDeclared)
	}
	edgeWeighted, vertexWeighted := false, false
	if len(header) == 3 {
		switch header[2] {
		case "0":
		case "1":
			edgeWeighted = true
		case "10":
			vertexWeighted = true
		case "11":
			edgeWeighted, vertexWeighted = true, true
		default:
			return nil, fmt.Errorf("netio: hmetis: unknown fmt %q", header[2])
		}
	}

	b := hypergraph.NewBuilder(numVerts)
	for e := 0; e < numEdges; e++ {
		fields, err := next()
		if err != nil {
			return nil, fmt.Errorf("netio: hmetis: edge %d: %w", e+1, err)
		}
		start := 0
		weight := int64(1)
		if edgeWeighted {
			w, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("netio: hmetis: edge %d: bad weight %q", e+1, fields[0])
			}
			weight = w
			start = 1
		}
		if len(fields) <= start {
			return nil, fmt.Errorf("netio: hmetis: edge %d has no pins", e+1)
		}
		pins := make([]int, 0, len(fields)-start)
		seen := make(map[int]bool, len(fields)-start)
		for _, f := range fields[start:] {
			v, err := strconv.Atoi(f)
			if err != nil || v < 1 || v > numVerts {
				return nil, fmt.Errorf("netio: hmetis: edge %d: bad vertex %q", e+1, f)
			}
			if seen[v] {
				return nil, fmt.Errorf("netio: hmetis: edge %d lists vertex %d twice", e+1, v)
			}
			seen[v] = true
			pins = append(pins, v-1)
		}
		id := b.AddEdge(pins...)
		b.SetEdgeWeight(id, weight)
	}
	if vertexWeighted {
		for v := 0; v < numVerts; v++ {
			fields, err := next()
			if err != nil {
				return nil, fmt.Errorf("netio: hmetis: vertex weight %d: %w", v+1, err)
			}
			w, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("netio: hmetis: vertex weight %d: bad value %q", v+1, fields[0])
			}
			b.SetVertexWeight(v, w)
		}
	}
	if extra, err := next(); err == nil {
		return nil, fmt.Errorf("netio: hmetis: trailing content %q after the declared %d edges", strings.Join(extra, " "), numEdges)
	} else if err != io.EOF {
		return nil, fmt.Errorf("netio: hmetis: %w", err)
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("netio: hmetis: %w", err)
	}
	return h, nil
}
