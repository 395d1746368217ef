package main

// Spans recorded around the benchmark's calls into each layer. Spans nest
// workload run → rep → spec (one session) → one span per public call, and
// are kept in memory until the run ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	Spec     string             `json:"spec,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans while on is set. A nil tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	origin   time.Time
	workload string
	on       bool
	rep      int
	spec     string
	spans    []span
	open     []int // indexes into spans of the open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// begin opens a span named name under the innermost open span and returns
// its index, or -1 when not recording.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Rep: t.rep, Spec: t.spec})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span, with the
// interval the caller measured.
func (t *tracer) end(i int, start time.Time, d time.Duration, counts map[string]float64) {
	if i < 0 {
		return
	}
	sp := &t.spans[i]
	sp.Start = start.Sub(t.origin).Nanoseconds()
	sp.End = sp.Start + d.Nanoseconds()
	sp.Counts = counts
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(0), int64(-1) // the merged interval being built
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else {
				curEnd = max(curEnd, hi)
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name       string
	n          int
	busy, self int64
	counts     map[string]float64
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name, counts: make(map[string]float64)}
			rows[s.Name] = r
		}
		r.n++
		r.busy += s.End - s.Start
		r.self += self[i]
		for k, v := range s.Counts {
			r.counts[k] += v
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printLayerTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-36s %7s %12s %12s  %s\n", "span", "n", "busy_s", "self_s", "counts")
	for _, r := range layerTable(spans) {
		keys := make([]string, 0, len(r.counts))
		for k := range r.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var cs []string
		for _, k := range keys {
			cs = append(cs, fmt.Sprintf("%s=%.6g", k, r.counts[k]))
		}
		fmt.Fprintf(w, "%-36s %7d %12.6f %12.6f  %s\n", r.name, r.n,
			float64(r.busy)/1e9, float64(r.self)/1e9, strings.Join(cs, " "))
	}
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
