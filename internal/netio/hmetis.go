package netio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fasthgp/internal/hypergraph"
)

// The hMETIS .hgr format is the de-facto exchange format for hypergraph
// partitioning benchmarks:
//
//	% comment
//	<numEdges> <numVertices> [fmt]
//	[edgeWeight] v1 v2 ...      (one line per edge, vertices 1-indexed)
//	[vertexWeight]              (one line per vertex, when fmt has 10)
//
// fmt is 0 (unweighted), 1 (edge weights), 10 (vertex weights) or 11
// (both). ParseHMetisStream (stream.go) and WriteHMetis implement the
// full format.

// MaxHMetisDeclared caps the vertex and edge counts a .hgr header may
// declare (every published partitioning benchmark is far below it).
// The header is trusted before any edge line is read, so without a cap
// a few bytes of malformed input could demand a multi-gigabyte
// allocation — the fuzzers found exactly that.
const MaxHMetisDeclared = 1 << 22

// WriteHMetis emits h in hMETIS format, choosing the minimal fmt code
// that preserves the weights.
func WriteHMetis(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	edgeWeighted, vertexWeighted := false, false
	for e := 0; e < h.NumEdges(); e++ {
		if h.EdgeWeight(e) != 1 {
			edgeWeighted = true
			break
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexWeight(v) != 1 {
			vertexWeighted = true
			break
		}
	}
	code := ""
	switch {
	case edgeWeighted && vertexWeighted:
		code = " 11"
	case vertexWeighted:
		code = " 10"
	case edgeWeighted:
		code = " 1"
	}
	fmt.Fprintf(bw, "%d %d%s\n", h.NumEdges(), h.NumVertices(), code)
	for e := 0; e < h.NumEdges(); e++ {
		if edgeWeighted {
			fmt.Fprintf(bw, "%d ", h.EdgeWeight(e))
		}
		for i, v := range h.EdgePins(e) {
			if i > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%d", v+1)
		}
		fmt.Fprintln(bw)
	}
	if vertexWeighted {
		for v := 0; v < h.NumVertices(); v++ {
			fmt.Fprintf(bw, "%d\n", h.VertexWeight(v))
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("netio: hmetis: %w", err)
	}
	return nil
}

// ReadHMetisFix parses an hMETIS fix file: one line per vertex, in
// vertex order, holding the vertex's fixed part id or -1 for free.
// Blank lines and %-comments are skipped. Exactly n assignments are
// required. The result is nil when every vertex is free.
func ReadHMetisFix(r io.Reader, n int) ([]int8, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	fixed := make([]int8, 0, n)
	any := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 8)
		if err != nil || v < -1 {
			return nil, fmt.Errorf("netio: hmetis fix: line %d: bad part id %q", lineNo, line)
		}
		if len(fixed) == n {
			return nil, fmt.Errorf("netio: hmetis fix: more than %d assignments", n)
		}
		fixed = append(fixed, int8(v))
		if v >= 0 {
			any = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netio: hmetis fix: %w", err)
	}
	if len(fixed) != n {
		return nil, fmt.Errorf("netio: hmetis fix: %d assignments, want %d", len(fixed), n)
	}
	if !any {
		return nil, nil
	}
	return fixed, nil
}

// WriteHMetisFix emits a fixed-vertex assignment in the hMETIS fix-file
// format: one line per vertex with its part id, -1 for free.
func WriteHMetisFix(w io.Writer, fixed []int8) error {
	bw := bufio.NewWriter(w)
	for _, f := range fixed {
		fmt.Fprintf(bw, "%d\n", f)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("netio: hmetis fix: %w", err)
	}
	return nil
}
