package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer. Spans of one solve or one
// request share Op; Parent is the enclosing span's ID, or -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pass nil and pay no clock reads.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// sumByName totals span durations per name, in milliseconds.
func sumByName(spans []span) map[string]float64 {
	sum := make(map[string]float64)
	for _, s := range spans {
		sum[s.Name] += ms(s.dur())
	}
	return sum
}

// selfRow is one line of the self-time table: a layer's span count,
// total time, and self time (total minus the time its children cover).
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes the self-time table, heaviest self time first.
// A span's self time is its duration minus the union of its children's
// intervals clipped to it, so overlapping children are not counted
// twice.
func selfTimes(spans []span) []selfRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals
// within parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

func printSelfTimes(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "self time by span, %s:\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

// writeSpans writes the spans to path as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
