package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation (device, record or request) share Op.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index into the recorder, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; a nil recorder records nothing, so the
// untraced path pays one nil test per span.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes the span start returned.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].End = time.Since(r.t0)
}

// add records an interval measured elsewhere (absolute times).
func (r *recorder) add(name string, parent, op int, from, to time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: from.Sub(r.t0), End: to.Sub(r.t0)})
	return len(r.spans) - 1
}

// selfTimes returns each span name's self time: its duration minus the
// part of it that its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write dumps the spans as JSONL.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
