package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced run's span store. The benchmark records spans
// from its own code only: the root span of a request is the HTTP round
// trip the client measured, and its children are replays of the same
// request's inputs through the public functions of each package (parse,
// canonical key, containment preparation, decision, plan execution,
// serialization), timed here and annotated with the counts those calls
// return. Nothing inside the program is instrumented.
//
// Replays run after the response arrived, so a child's interval does
// not lie inside its parent's. Self time is therefore a span's duration
// minus the durations of its children, which the replays lay out one
// after another. "probe" roots group re-executions of steps that run
// inside a decision or an evaluation (the first layer's core and GYO,
// the layer-3 chase, classification, a from-scratch Yannakakis run);
// they are reported per layer but never subtracted from the server's
// time, since the request already paid for them inside its children.

// span is one recorded interval.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps every span of the traced phase in memory.
type tracer struct {
	start time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	spans    []span
	counts   map[string]float64 // summed per-request counts
	requests int                // replayed requests
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), counts: map[string]float64{}}
}

// reqTrace collects one replayed request before it is committed.
type reqTrace struct {
	tr     *tracer
	req    int64
	root   int64
	probe  int64
	spans  []span
	counts map[string]float64
}

// begin opens a request whose root span is the measured HTTP round trip
// (name is "server" for reads and writes alike).
func (tr *tracer) begin(start time.Time, lat time.Duration) *reqTrace {
	id := tr.ids.Add(1)
	r := &reqTrace{tr: tr, req: id, counts: map[string]float64{}}
	r.root = r.add(0, "server", start, lat)
	return r
}

func (r *reqTrace) add(parent int64, name string, start time.Time, d time.Duration) int64 {
	id := r.tr.ids.Add(1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name,
		Start: start.Sub(r.tr.start).Nanoseconds(), Dur: d.Nanoseconds()})
	return id
}

// step times f as a child of parent and returns the new span's id.
func (r *reqTrace) step(parent int64, name string, f func()) int64 {
	start := time.Now()
	f()
	return r.add(parent, name, start, time.Since(start))
}

// call times f as a child of the request root.
func (r *reqTrace) call(name string, f func()) int64 { return r.step(r.root, name, f) }

// probeCall times f under the request's probe root.
func (r *reqTrace) probeCall(name string, f func()) {
	if r.probe == 0 {
		r.probe = r.add(0, "probe", time.Now(), 0)
	}
	r.step(r.probe, name, f)
}

// count adds v to a per-request count.
func (r *reqTrace) count(name string, v float64) { r.counts[name] += v }

// commit hands the request's spans and counts to the tracer.
func (r *reqTrace) commit() {
	tr := r.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, r.spans...)
	for k, v := range r.counts {
		tr.counts[k] += v
	}
	tr.requests++
}

// selfTimes returns each span name's total self time in ms. A probe
// root's self time is its negative children sum and is skipped.
func (tr *tracer) selfTimes() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int64]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	out := map[string]float64{}
	for _, s := range tr.spans {
		if s.Name == "probe" {
			continue
		}
		out[s.Name] += float64(s.Dur-children[s.ID]) / 1e6
	}
	return out
}

// write stores every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(tr.spans, func(i, j int) bool { return tr.spans[i].ID < tr.spans[j].ID })
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
