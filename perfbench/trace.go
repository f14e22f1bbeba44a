package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends.
// While off, begin and end cost one branch, which is what the
// untraced pass of the overhead measurement pays.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name     string  `json:"name"`
	Spans    int     `json:"spans"`
	Requests int     `json:"requests"` // request instances that called it: distinct parents
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
}

// perRequest is the mean, over the requests that called it, of the
// time one request spent in the named layer.
func (s *layerSummary) perRequest() time.Duration {
	if s == nil || s.Requests == 0 {
		return 0
	}
	return time.Duration(s.TotalMS * float64(time.Millisecond) / float64(s.Requests))
}

// perSpan is the mean duration of one call.
func (s *layerSummary) perSpan() time.Duration {
	if s == nil || s.Spans == 0 {
		return 0
	}
	return time.Duration(s.TotalMS * float64(time.Millisecond) / float64(s.Spans))
}

// summarize computes, per span name, the call count, total time and
// self time: each span's duration minus the part of it that its
// children cover.
func summarize(spans []span) map[string]*layerSummary {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerSummary{}
	reqs := map[string]map[int]bool{}
	for _, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &layerSummary{Name: s.Name}
			out[s.Name] = sum
			reqs[s.Name] = map[int]bool{}
		}
		dur := s.End - s.Start
		sum.Spans++
		// A request replayed in several passes has one parent span per
		// pass; a root span is its own request instance.
		instance := s.Parent
		if instance == 0 {
			instance = -s.ID
		}
		reqs[s.Name][instance] = true
		sum.TotalMS += float64(dur) / 1e6
		sum.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	for name, sum := range out {
		sum.Requests = len(reqs[name])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeTrace keeps the run's spans, their summary and its provenance.
func writeTrace(e *env, spans []span, sums map[string]*layerSummary) (string, error) {
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	table := make([]*layerSummary, 0, len(names))
	for _, n := range names {
		table = append(table, sums[n])
	}
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	data, err := json.MarshalIndent(map[string]any{
		"provenance": provenance(e),
		"layers":     table,
		"spans":      spans,
	}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
