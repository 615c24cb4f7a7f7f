package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

// span is one timed call. Name is "<module>.<call>"; Unit is the id of
// the arrival, round or window the call serves (-1 for set-up and
// phase spans); Parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Unit   int           `json:"unit"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Unit: unit, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, unit int, fn func()) {
	id := t.begin(name, parent, unit)
	fn()
	t.end(id)
}

// module is the layer a span belongs to: the first dotted component of
// its name.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes attributes the wall time of span root and its descendants
// to modules: each span's duration minus the part of it its children
// cover. It fails when a child escapes its parent or overlaps a
// sibling, which would make self times meaningless.
func (t *tracer) selfTimes(root int) (map[string]time.Duration, error) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	var walk func(i int) error
	walk = func(i int) error {
		s := t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		prevEnd := s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.Start < prevEnd || c.End > s.End || c.End < c.Start {
				return fmt.Errorf("span %q [%v,%v] escapes parent %q or overlaps a sibling", c.Name, c.Start, c.End, s.Name)
			}
			covered += c.End - c.Start
			prevEnd = c.End
			if err := walk(k); err != nil {
				return err
			}
		}
		self[module(s.Name)] += s.End - s.Start - covered
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return self, nil
}

// writeSelfTable prints the per-layer self-time split of the timed
// phase, largest first, and checks that it adds up to the phase's wall
// time.
func writeSelfTable(w io.Writer, workload string, self map[string]time.Duration, wall time.Duration) error {
	type row struct {
		mod string
		d   time.Duration
	}
	var rows []row
	var sum time.Duration
	for m, d := range self {
		rows = append(rows, row{m, d})
		sum += d
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	fmt.Fprintf(w, "self time by layer, timed phase of %s (wall %.3f s):\n", workload, wall.Seconds())
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %9.3f s %6.1f%%\n", r.mod, r.d.Seconds(), 100*r.d.Seconds()/wall.Seconds())
	}
	if sum != wall {
		return fmt.Errorf("self times add up to %v, timed phase took %v", sum, wall)
	}
	return nil
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}
