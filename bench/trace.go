package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program. Spans of one operation share OpID;
// Parent is the ID of the span that caused this one, or -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// counterPoint is a counter read at a span boundary, so that ratios are
// taken where the work happens.
type counterPoint struct {
	At    int64   `json:"at_ns"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans in memory, one buffer per caller so callers never
// contend, and writes them out when the run ends.
type tracer struct {
	t0       time.Time
	bufs     [][]span
	counters []counterPoint
}

func newTracer(callers int) *tracer {
	return &tracer{t0: time.Now(), bufs: make([][]span, callers)}
}

// spanRef addresses an open span.
type spanRef struct {
	caller, idx int
	id          int32
}

// begin opens a span on caller's buffer. IDs are unique across callers:
// the caller index is the low part. A nil tracer records nothing, so the
// untraced phase runs the same code.
func (t *tracer) begin(caller int, name string, parent int32, op int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	buf := t.bufs[caller]
	id := int32(len(buf)*len(t.bufs) + caller)
	t.bufs[caller] = append(buf, span{ID: id, Parent: parent, OpID: op, Name: name, Start: int64(time.Since(t.t0))})
	return spanRef{caller: caller, idx: len(buf), id: id}
}

func (t *tracer) end(r spanRef) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.bufs[r.caller][r.idx]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// counter records a counter value now. Only the coordinating goroutine
// calls it, between segments.
func (t *tracer) counter(name string, v float64) {
	t.counters = append(t.counters, counterPoint{At: int64(time.Since(t.t0)), Name: name, Value: v})
}

func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// layerTime sums one span name: Total is span time, Self is span time
// minus the part its child spans cover.
type layerTime struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - children[s.ID]
		if self < 0 {
			self = 0
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalUS += float64(dur) / 1e3
		lt.SelfUS += float64(self) / 1e3
		out[s.Name] = lt
	}
	return out
}

type traceFile struct {
	Workload string               `json:"workload"`
	Layers   map[string]layerTime `json:"layers"`
	Counters []counterPoint       `json:"counters"`
	Spans    []span               `json:"spans"`
}

func (t *tracer) write(dir, workload string) error {
	spans := t.spans()
	data, err := json.Marshal(traceFile{Workload: workload, Layers: selfTimes(spans), Counters: t.counters, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
