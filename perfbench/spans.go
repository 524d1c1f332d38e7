package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span tracing for the traced run. Spans are recorded only by the
// benchmark's own code, around its calls into the simulator's public
// functions; the simulator itself is not instrumented. Spans live in memory
// and are written out once, when the benchmark ends.

// span is one timed call. Parent is the index of the enclosing span (-1 for
// a root); Run groups every span of one simulation run (0 is set-up).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans on one goroutine. A nil *tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	base  time.Time
	spans []span
	stack []int
	run   int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run,
		Start: int64(time.Since(t.base))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

// newRun starts a fresh run id for the spans that follow.
func (t *tracer) newRun() {
	if t != nil {
		t.run++
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children (children may not overlap each other on a
// single goroutine, but the union is taken anyway).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = (s.End - s.Start) - covered(iv)
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf is a span name's layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += st
	}
	return out
}

// writeSpans writes the span file: every span plus the per-layer self
// times and the host fingerprint.
func writeSpans(path string, spans []span, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	selfMS := map[string]float64{}
	for layer, ns := range layerSelf(spans) {
		selfMS[layer] = float64(ns) / 1e6
	}
	b, err := json.Marshal(struct {
		Host        hostInfo           `json:"host"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{host, selfMS, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
