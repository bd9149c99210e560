package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"zipper/internal/trace"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one block carry its index as their identifier.
type span struct {
	layer      string
	block      int // block index, or -1
	parent     int // index of the enclosing span in the same lane, or -1
	start, end time.Duration
}

// lane holds the spans of one application goroutine, so the producer and
// the consumer record without sharing a lock. Spans stay in memory until
// the run ends.
type lane struct {
	name  string
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (l *lane) begin(layer string, block, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{layer: layer, block: block, parent: parent, start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

func (l *lane) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(l.epoch)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	count       int
	total, self time.Duration
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of it that the span's children cover. Children
// of one parent run on the parent's goroutine, so they never overlap.
func selfTimes(lanes []*lane) []layerTime {
	rows := map[string]*layerTime{}
	for _, l := range lanes {
		covered := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			r := rows[s.layer]
			if r == nil {
				r = &layerTime{layer: s.layer}
				rows[s.layer] = r
			}
			r.count++
			r.total += s.end - s.start
			r.self += s.end - s.start - covered[i]
		}
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// runtimeLanes turns the runtime threads' Recorder spans into lanes on the
// benchmark's clock. The runtime clock starts inside NewJob, so shifting by
// NewJob's start places its spans within NewJob's duration of the truth.
func runtimeLanes(rec *trace.Recorder, shift time.Duration) []*lane {
	byProc := map[string]*lane{}
	var out []*lane
	for _, s := range rec.Spans() {
		l := byProc[s.Proc]
		if l == nil {
			l = &lane{name: s.Proc}
			byProc[s.Proc] = l
			out = append(out, l)
		}
		l.spans = append(l.spans, span{
			layer: runtimeLayer(s.Proc, s.State), block: -1, parent: -1,
			start: s.Start + shift, end: s.End + shift,
		})
	}
	return out
}

// runtimeLayer names a runtime span by its module, endpoint role and
// thread: "zprod.0.sender" in state "direct" becomes
// "core.prod.sender.direct".
func runtimeLayer(proc, state string) string {
	parts := strings.Split(proc, ".")
	module := map[string]string{"zprod": "core.prod", "zcons": "core.cons", "zstage": "staging"}[parts[0]]
	if module == "" {
		module = parts[0]
	}
	return module + "." + parts[len(parts)-1] + "." + state
}

// writeChromeTrace writes every lane as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open.
func writeChromeTrace(path string, lanes []*lane) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for _, l := range lanes {
		for _, s := range l.spans {
			ev := event{Name: s.layer, Ph: "X", Pid: 1, Tid: l.name,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3}
			if s.block >= 0 {
				ev.Args = map[string]any{"block": s.block}
			}
			evs = append(evs, ev)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
