package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log; spans past it are counted,
// not kept.
const maxSpans = 1 << 21

// span is one timed call across a boundary the benchmark owns. Spans of
// one link event or one HTTP request share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory, plus the counters
// the timing wrappers accumulate at the same boundaries.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	ids     atomic.Uint64
	// event and op name the open link-event span: calls the program
	// makes into the wrappers while it is open become its children.
	event atomic.Uint64
	op    atomic.Uint64

	sends, sendNs, drains, drainNs, drained, drainMax  atomic.Int64
	appends, appendNs, flushes, flushNs, seals, sealNs atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin allocates a span id and returns it with the start time.
func (t *tracer) begin() (uint64, int64) { return t.ids.Add(1), t.now() }

// end records a span opened by begin and returns its duration.
func (t *tracer) end(id uint64, name string, parent, op uint64, start int64) int64 {
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return end - start
}

// child records a call made by the program while a link event is open.
func (t *tracer) child(name string, start int64) int64 {
	return t.end(t.ids.Add(1), name, t.event.Load(), t.op.Load(), start)
}

// span times f as a top-level span; with a nil tracer it just runs f.
func (t *tracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id, start := t.begin()
	err := f()
	t.end(id, name, 0, 0, start)
	return err
}

// eventSpan opens a link-event span; the returned func closes it.
// Program-side calls during the event are recorded as its children.
func (t *tracer) eventSpan(name string, op uint64) func() {
	if t == nil {
		return func() {}
	}
	id, start := t.begin()
	t.event.Store(id)
	t.op.Store(op)
	return func() {
		t.event.Store(0)
		t.op.Store(0)
		t.end(id, name, 0, op, start)
	}
}

// selfTime is one span name's totals: a span's self time is its
// duration minus the part of it its child spans cover.
type selfTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) selfTimes() map[string]*selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*selfTime{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-covered(kids[s.ID], s.Start, s.End)) / 1e9
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi]: children run on several goroutines and may overlap.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans and per-name self times of traced pass i.
func (t *tracer) write(workload string, seed int64, i int) (string, error) {
	dir := filepath.Join(scratchDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := t.selfTimes()
	t.mu.Lock()
	doc := map[string]any{"workload": workload, "seed": seed, "dropped": t.dropped, "self": self, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", workload, seed, i))
	return path, os.WriteFile(path, b, 0o644)
}
