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

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req; Parent is
// the enclosing span's ID (0 for a root).
type span struct {
	ID         int
	Parent     int
	Req        int64
	Name       string
	Start, End time.Time
	// Ops is how many calls the span covers (a loop of cheap calls timed
	// as one span); per-call time is the duration divided by Ops.
	Ops int
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, Ops: 1})
	return len(t.spans)
}

// end closes span id; ops > 1 marks a span that timed a loop of calls.
func (t *tracer) end(id int, ops int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if ops > 1 {
		s.Ops = ops
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval covered by its children. Overlapping
// children (concurrent calls) are merged first, so covered time is never
// counted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// clipping each child to the parent and merging overlaps.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// layerTimes groups per-call self times by span name.
func layerTimes(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		out[s.Name] = append(out[s.Name], self[s.ID]/time.Duration(max(s.Ops, 1)))
	}
	return out
}

// medianOf returns the median per-call self time of the named layer in
// the given unit (0 when the layer recorded no span).
func medianOf(times map[string][]time.Duration, name string, unit time.Duration) float64 {
	ds := times[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// sumOf returns the total self time of the named layer in seconds.
func sumOf(times map[string][]time.Duration, name string) float64 {
	var total time.Duration
	for _, d := range times[name] {
		total += d
	}
	return total.Seconds()
}

// writeSpans writes the spans and a per-layer self-time summary as JSON.
func writeSpans(path string, spans []span) error {
	type layer struct {
		Name     string  `json:"name"`
		Calls    int     `json:"calls"`
		SelfP50  float64 `json:"self_p50_us"`
		SelfSumS float64 `json:"self_sum_s"`
	}
	times := layerTimes(spans)
	names := make([]string, 0, len(times))
	for name := range times {
		names = append(names, name)
	}
	sort.Strings(names)
	// Spans are written with start and end in nanoseconds from the first
	// span's start.
	type spanJSON struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Req     int64  `json:"req"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Ops     int    `json:"ops"`
	}
	doc := struct {
		Layers []layer    `json:"layers"`
		Spans  []spanJSON `json:"spans"`
	}{Spans: make([]spanJSON, len(spans))}
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].Start
	}
	for i, s := range spans {
		doc.Spans[i] = spanJSON{ID: s.ID, Parent: s.Parent, Req: s.Req, Name: s.Name,
			StartNS: s.Start.Sub(origin).Nanoseconds(), EndNS: s.End.Sub(origin).Nanoseconds(), Ops: s.Ops}
	}
	for _, name := range names {
		doc.Layers = append(doc.Layers, layer{
			Name: name, Calls: len(times[name]),
			SelfP50:  medianOf(times, name, time.Microsecond),
			SelfSumS: sumOf(times, name),
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
