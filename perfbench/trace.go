package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Job    int    `json:"job"`    // 0 = set-up or probe work outside a job
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced timed runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns the function that closes it and its ID,
// which child spans pass as parent.
func (t *tracer) begin(name string, parent, job int) (end func(), id int) {
	if t == nil {
		return func() {}, 0
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return func() {
		now := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}, id
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, job int, fn func() error) error {
	end, _ := t.begin(name, parent, job)
	defer end()
	return fn()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the finished spans with the given
// name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children (concurrent calls)
// count once: the covered part is the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeTrace writes the spans and their self times as one JSON document.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, int64(self[s.ID])}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"schema": "perfbench.trace/v1", "spans": rows}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
