package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Spans of one query share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// active is an open span; end records it.
type active struct {
	r *recorder
	s span
}

// start opens a span under parent, or a new request's root span when
// parent is nil.
func (r *recorder) start(name string, parent *active) *active {
	if r == nil {
		return nil
	}
	s := span{ID: r.ids.Add(1), Name: name, Start: int64(time.Since(r.base))}
	if parent != nil {
		s.Parent, s.Req = parent.s.ID, parent.s.Req
	} else {
		s.Req = r.reqs.Add(1)
	}
	return &active{r: r, s: s}
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.base))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// layerRow is one line of the per-layer span table.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// table aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover (children of one span run one
// after another, so their durations add up).
func (r *recorder) table() []layerRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	childTime := map[int64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			rows[s.Name] = row
		}
		row.count++
		row.total += s.dur()
		row.self += s.dur() - childTime[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *recorder) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, row := range r.table() {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.4f\n", row.name, row.count,
			ms(row.total), ms(row.self), ms(row.total)/float64(row.count))
	}
}

// writeJSON writes every recorded span as one JSON array.
func (r *recorder) writeJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.NewEncoder(w).Encode(r.spans)
}
