package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"semacyclic/internal/server"
)

// target is one in-process semacycd behind a real loopback listener.
type target struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
	once sync.Once
	err  error
	// client reuses one keep-alive connection per benchmark client.
	client *http.Client
}

// startTarget builds a server with the default configuration and serves
// it on an ephemeral loopback port.
func startTarget(clients int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{SlowLogWriter: io.Discard})
	hs := &http.Server{Handler: srv.Handler()}
	t := &target{
		srv:  srv,
		http: hs,
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	go func() { t.done <- hs.Serve(ln) }()
	return t, nil
}

// stop shuts the listener down, drains the worker pool and waits for
// the serve goroutine to return. Calls after the first return the first
// call's error.
func (t *target) stop() error {
	t.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		t.err = t.http.Shutdown(ctx)
		t.srv.Drain()
		if serr := <-t.done; !errors.Is(serr, http.ErrServerClosed) && t.err == nil {
			t.err = serr
		}
		t.client.CloseIdleConnections()
	})
	return t.err
}

// do sends one JSON request and returns the status, the body and the
// round-trip latency (request write to body fully read).
func (t *target) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, out, lat, err
}

// postJSON marshals v, sends it and requires a 2xx answer.
func (t *target) postJSON(method, path string, v any) ([]byte, time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	return t.send(method, path, body)
}

// send sends a JSON body and requires a 2xx answer.
func (t *target) send(method, path string, body []byte) ([]byte, time.Duration, error) {
	status, out, lat, err := t.do(method, path, body)
	if err != nil {
		return nil, lat, err
	}
	if status/100 != 2 {
		return out, lat, fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(out)))
	}
	return out, lat, nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (t *target) scrape() (map[string]float64, error) {
	status, body, _, err := t.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// Request kinds: reads are /decide, /decide/batch and /evaluate; writes
// are PATCH.
const (
	kindRead  = 0
	kindWrite = 1
)

// sample is one HTTP request's outcome.
type sample struct {
	done time.Time // when the response was checked
	lat  float64   // ms; valid when bad == 0
	ok   int       // ops completed
	bad  int       // ops failed
	kind int
}

// recorder collects one phase's samples from every client.
type recorder struct {
	mu       sync.Mutex
	samples  []sample
	firstErr error
	// Totals, kept for callers that read a recorder directly.
	ops, attempted, failed int64
}

// add records one HTTP request carrying n ops; err marks all n failed.
func (r *recorder) add(kind int, lat time.Duration, n int, err error) {
	if err != nil {
		r.addSplit(kind, lat, 0, n, err)
		return
	}
	r.addSplit(kind, lat, n, 0, nil)
}

// addSplit records one HTTP request whose ops split into ok and bad;
// err describes the first bad op. Only a request with no bad op gives a
// latency sample.
func (r *recorder) addSplit(kind int, lat time.Duration, ok, bad int, err error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{now, float64(lat) / float64(time.Millisecond), ok, bad, kind})
	r.attempted += int64(ok + bad)
	r.ops += int64(ok)
	r.failed += int64(bad)
	if bad > 0 && r.firstErr == nil {
		r.firstErr = err
	}
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// usage is a process resource snapshot.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64 // cumulative heap bytes allocated
	maxRSSKB int64
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// takeUsage reads CPU time and peak RSS from getrusage and cumulative
// allocation from runtime/metrics, which does not stop the world.
func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	s := make([]metrics.Sample, 1)
	copy(s, allocMetric)
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		maxRSSKB: ru.Maxrss,
	}
}

// window is one slice of a phase.
type window struct {
	seconds float64
	ops     int64
	cpu     time.Duration
	alloc   uint64
	read    []float64 // sorted ms
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	seconds   float64
	ops       int64
	attempted int64
	failed    int64
	firstErr  error
	read      []float64 // sorted ms, whole phase
	write     []float64 // sorted ms, whole phase
	maxRSSKB  int64
	snaps     []usage  // snapSlices+1 snapshots at equal steps
	samples   []sample // in completion order
}

// A phase is cut into snapSlices equal slices, and each reported rate,
// per-op cost or read percentile is the median over windows made of
// whole slices. A median over windows discounts a stall (on a shared
// host, whole seconds at half speed) that hits part of a run. Each
// statistic uses as many windows, at most maxWindows, as keep enough
// samples in each: minWindowOps ops for rates and per-op costs, 100
// reads for p50 and 1000 for p99, so a window's p99 has about ten
// samples beyond it.
const (
	snapSlices   = 20
	maxWindows   = 10
	minWindowOps = 200
)

// runLoop runs clients closed-loop for d: each client calls step again
// as soon as the previous call returns, until d has passed.
func runLoop(clients int, d time.Duration, step func(client int, rec *recorder)) *phase {
	rec := &recorder{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	runtime.GC()
	snaps := []usage{takeUsage()}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				step(c, rec)
			}
		}(c)
	}
	for i := 1; i <= snapSlices; i++ {
		time.Sleep(time.Until(snaps[0].wall.Add(d * time.Duration(i) / snapSlices)))
		snaps = append(snaps, takeUsage())
	}
	stop.Store(true)
	wg.Wait()
	end := takeUsage()
	p := &phase{
		seconds:   end.wall.Sub(snaps[0].wall).Seconds(),
		ops:       rec.ops,
		attempted: rec.attempted,
		failed:    rec.failed,
		firstErr:  rec.firstErr,
		maxRSSKB:  end.maxRSSKB,
		snaps:     snaps,
		samples:   rec.samples,
	}
	var read, write []float64
	for _, s := range rec.samples {
		switch {
		case s.bad > 0:
		case s.kind == kindWrite:
			write = append(write, s.lat)
		default:
			read = append(read, s.lat)
		}
	}
	p.read, p.write = sortedCopy(read), sortedCopy(write)
	return p
}

// windows splits the phase into n equal windows (n divides snapSlices)
// and assigns each sample completed before the last snapshot to the
// window it completed in.
func (p *phase) windows(n int) []window {
	per := snapSlices / n
	out := make([]window, n)
	for w := range out {
		a, b := p.snaps[w*per], p.snaps[(w+1)*per]
		out[w] = window{seconds: b.wall.Sub(a.wall).Seconds(), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
	}
	first, last := p.snaps[0].wall, p.snaps[len(p.snaps)-1].wall
	for _, s := range p.samples {
		if !s.done.Before(last) {
			continue
		}
		w := int(float64(s.done.Sub(first)) / float64(last.Sub(first)) * float64(n))
		if w >= n {
			w = n - 1
		}
		out[w].ops += int64(s.ok)
		if s.bad == 0 && s.kind == kindRead {
			out[w].read = append(out[w].read, s.lat)
		}
	}
	for w := range out {
		sort.Float64s(out[w].read)
	}
	return out
}

// windowsFor returns the largest number of windows, at most
// maxWindows and dividing snapSlices, that keeps min of count in each.
func windowsFor(count, min int) int {
	n := maxWindows
	for n > 1 && (snapSlices%n != 0 || count/n < min) {
		n--
	}
	return n
}

// overWindows returns the median over n windows of f.
func (p *phase) overWindows(n int, f func(w window) float64) float64 {
	var xs []float64
	for _, w := range p.windows(n) {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// readQuantile is the median over windows of the q-quantile of reads.
func (p *phase) readQuantile(q float64, minReads int) float64 {
	return p.overWindows(windowsFor(len(p.read), minReads), func(w window) float64 { return quantile(w.read, q) })
}

// perOp is the median over windows of f per completed op.
func (p *phase) perOp(f func(w window) float64) float64 {
	return p.overWindows(windowsFor(int(p.ops), minWindowOps), func(w window) float64 { return f(w) / float64(w.ops) })
}

func (p *phase) opsPerS() float64 {
	return 1 / p.perOp(func(w window) float64 { return w.seconds })
}
