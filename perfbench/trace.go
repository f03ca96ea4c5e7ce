package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Spans of one operation share Op;
// Parent is the span that caused this one (0 for an operation's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. It is safe for use
// by several goroutines; times are nanoseconds since the recorder began.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Add records a finished span and returns its id.
func (r *Recorder) Add(name string, parent, op int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
	return id
}

// End closes span id, recorded by Add with its start as its end, at the
// current time.
func (r *Recorder) End(id int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = int64(now.Sub(r.t0))
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write stores the spans as JSON at path, creating its directory.
func (r *Recorder) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time keyed by id: its duration
// minus the part of its interval covered by its children (children are
// clipped to the parent and overlapping children count once).
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, end int64
	end = lo
	for _, iv := range c {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}
