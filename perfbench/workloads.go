package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"semacyclic/internal/instance"
	"semacyclic/internal/server"
)

// deadlineMS is set on every request. The server's 10 s default would
// turn a slow decision into a 504; with explicit small budgets no
// request comes near this bound.
const deadlineMS = 60000

// replayEvery: a traced phase replays one read in this many per client
// (every write is replayed), which keeps the tracing overhead moderate.
const replayEvery = 4

// workload is one traffic mix against a fresh server.
type workload interface {
	// clients is the number of closed-loop client connections.
	clients() int
	// setup loads the workload's state into a fresh server and warms
	// its caches; setup_s times it.
	setup(t *target) error
	// step runs one closed-loop iteration of client c. tr is nil in
	// untraced phases.
	step(t *target, c int, rec *recorder, tr *tracer)
	// prepareTrace brings the replay side to the state the server is in
	// after setup (parsed instance, compiled plans, reducer states), so
	// the traced phase replays warm requests as the server serves them.
	prepareTrace() error
}

// workloadNames lists the workloads the program runs; BENCHMARK.json
// lists all but decide-batch-warm (see README.md).
var workloadNames = []string{"decide-cold", "decide-batch-warm", "evaluate-hot", "patch-evaluate"}

// newWorkload builds a workload's inputs and reference answers from the
// seed. This is untimed: it is the benchmark's work, not the server's.
func newWorkload(name string, seed int64) (workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "decide-cold":
		return newDecideCold(r), nil
	case "decide-batch-warm":
		return newBatchWarm(r, seed)
	case "evaluate-hot":
		return newEvaluateHot(r, seed)
	case "patch-evaluate":
		return newPatchEvaluate(r, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sampler decides which reads of a client a traced phase replays.
type sampler struct{ n [2]atomic.Int64 }

func (s *sampler) take(c int) bool { return s.n[c].Add(1)%replayEvery == 1 }

// ---- decide-cold --------------------------------------------------

// decideCold: one client sends /decide for (q, Σ) pairs that never
// repeat, so the decision and prepared-checker caches always miss and
// every request runs the decision layers. One client leaves a core idle
// for the parallel witness search (default parallelism).
type decideCold struct {
	pool   []decideItem
	warm   []decideItem
	next   atomic.Int64
	sample sampler
}

// Pool sizes: the decide-cold stream cycles through 600 shapes under
// per-request predicate prefixes; setup warms the process with the
// first 100 shapes under prefixes of their own (two mix blocks).
const (
	coldPoolSize = 600
	coldWarmSize = 100
)

func newDecideCold(r *rand.Rand) *decideCold {
	w := &decideCold{pool: decidePool(r, coldPoolSize)}
	for i := 0; i < coldWarmSize; i++ {
		it := w.pool[i]
		it.query, it.deps = prefixPreds(it.query, fmt.Sprintf("w%d", i)), prefixPreds(it.deps, fmt.Sprintf("w%d", i))
		w.warm = append(w.warm, it)
	}
	return w
}

func (w *decideCold) clients() int { return 1 }

func (w *decideCold) prepareTrace() error { return nil }

func decideRequest(it decideItem) server.DecideRequest {
	return server.DecideRequest{Query: it.query, Deps: it.deps, Budget: it.budget, DeadlineMS: deadlineMS}
}

func (w *decideCold) setup(t *target) error {
	for _, it := range w.warm {
		body, _, err := t.postJSON("POST", "/decide", decideRequest(it))
		if err != nil {
			return err
		}
		if err := checkDecideBody(it, body); err != nil {
			return err
		}
	}
	return nil
}

func checkDecideBody(it decideItem, body []byte) error {
	var d decideBody
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("decode /decide: %w", err)
	}
	return checkDecision(it, d)
}

func (w *decideCold) step(t *target, c int, rec *recorder, tr *tracer) {
	it := distinctItem(w.pool, int(w.next.Add(1)-1))
	start := time.Now()
	body, lat, err := t.postJSON("POST", "/decide", decideRequest(it))
	if err == nil {
		err = checkDecideBody(it, body)
	}
	rec.add(kindRead, lat, 1, err)
	if err == nil && tr != nil && w.sample.take(c) {
		r := tr.begin(start, lat)
		if q, set, ok := replayKeys(r, it.query, it.deps); ok {
			replayDecision(r, q, set, it.budget)
		}
		r.commit()
	}
}

// ---- decide-batch-warm --------------------------------------------

// batchWarm: two clients send /decide/batch of 16 items drawn Zipf from
// a pool that fits the 4096-entry decision cache and is warmed in
// setup, so nearly every item hits and parsing, the canonical key, the
// LRU and JSON dominate.
//
// The client side is kept cheap, since it shares the two cores with the
// server: request bodies are spliced from per-item JSON encoded once,
// and a response is first compared byte for byte with the response
// spliced from the items' already-checked cache-hit results; only a
// response that differs is decoded and checked item by item.
type batchWarm struct {
	pool     []decideItem
	itemJSON [][]byte // each pool item's encoded DecideRequest
	zipf     [2]*rand.Zipf
	// hitJSON holds, per pool item, the encoded cache-hit BatchResult
	// whose result passed checkDecision; nil until one has.
	mu      sync.Mutex
	hitJSON map[int][]byte
	sample  sampler
}

const (
	batchPoolSize = 512
	batchSize     = 16
)

func newBatchWarm(r *rand.Rand, seed int64) (*batchWarm, error) {
	w := &batchWarm{hitJSON: map[int][]byte{}}
	base := decidePool(r, batchPoolSize)
	for i := range base {
		it := distinctItem(base, i)
		w.pool = append(w.pool, it)
		b, err := json.Marshal(server.DecideRequest{Query: it.query, Deps: it.deps, Budget: it.budget})
		if err != nil {
			return nil, err
		}
		w.itemJSON = append(w.itemJSON, b)
	}
	for c := range w.zipf {
		w.zipf[c] = rand.NewZipf(rand.New(rand.NewSource(seed*31+int64(c))), 1.1, 1, uint64(len(w.pool)-1))
	}
	return w, nil
}

func (w *batchWarm) clients() int { return 2 }

func (w *batchWarm) prepareTrace() error { return nil }

// checkItem checks one batch result against pool item i and, for a
// checked cache hit, remembers its encoding.
func (w *batchWarm) checkItem(i int, res server.BatchResult) error {
	if res.Error != "" {
		return fmt.Errorf("batch item: %s", res.Error)
	}
	if err := checkDecideBody(w.pool[i], res.Result); err != nil {
		return err
	}
	if res.Cached {
		enc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.hitJSON[i] = enc
		w.mu.Unlock()
	}
	return nil
}

// splice joins encoded elements into a JSON array between prefix and
// suffix. It returns nil when an element is missing.
func splice(prefix string, elems [][]byte, suffix string) []byte {
	n := len(prefix) + len(suffix) + len(elems)
	for _, e := range elems {
		if e == nil {
			return nil
		}
		n += len(e)
	}
	out := make([]byte, 0, n)
	out = append(out, prefix...)
	for k, e := range elems {
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, e...)
	}
	return append(out, suffix...)
}

// send posts one batch of pool items and checks every result. It
// returns the response body and the number of wrong items.
func (w *batchWarm) send(t *target, idx []int) ([]byte, time.Duration, int, error) {
	items := make([][]byte, len(idx))
	for k, i := range idx {
		items[k] = w.itemJSON[i]
	}
	req := splice(`{"requests":[`, items, fmt.Sprintf(`],"deadline_ms":%d}`, deadlineMS))
	body, lat, err := t.send("POST", "/decide/batch", req)
	if err != nil {
		return body, lat, len(idx), err
	}
	w.mu.Lock()
	for k, i := range idx {
		items[k] = w.hitJSON[i]
	}
	w.mu.Unlock()
	if want := splice(`{"results":[`, items, "]}\n"); want != nil && bytes.Equal(body, want) {
		return body, lat, 0, nil
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return body, lat, len(idx), fmt.Errorf("decode /decide/batch: %w", err)
	}
	if len(resp.Results) != len(idx) {
		return body, lat, len(idx), fmt.Errorf("batch of %d answered %d results", len(idx), len(resp.Results))
	}
	wrong := 0
	var first error
	for k, i := range idx {
		if err := w.checkItem(i, resp.Results[k]); err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return body, lat, wrong, first
}

// setup decides every pool item once, from two goroutines so both
// workers are busy.
func (w *batchWarm) setup(t *target) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for lo := g * batchSize; lo < len(w.pool); lo += 2 * batchSize {
				var idx []int
				for i := lo; i < lo+batchSize && i < len(w.pool); i++ {
					idx = append(idx, i)
				}
				if _, _, _, err := w.send(t, idx); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *batchWarm) step(t *target, c int, rec *recorder, tr *tracer) {
	idx := make([]int, batchSize)
	for k := range idx {
		idx[k] = int(w.zipf[c].Uint64())
	}
	start := time.Now()
	body, lat, wrong, err := w.send(t, idx)
	rec.addSplit(kindRead, lat, batchSize-wrong, wrong, err)
	if wrong == 0 && tr != nil && w.sample.take(c) {
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		r := tr.begin(start, lat)
		for k, i := range idx {
			it := w.pool[i]
			q, set, ok := replayKeys(r, it.query, it.deps)
			if ok && !resp.Results[k].Cached {
				replayDecision(r, q, set, it.budget)
			}
		}
		r.call("serialize", func() { _, _ = json.Marshal(&resp) })
		r.commit()
	}
}

// ---- evaluate-hot -------------------------------------------------

// evaluateHot: two clients send /evaluate against one loaded Example 1
// instance that satisfies Σ. Plans are compiled in setup and fit the
// plan cache, so work goes to execution and serialization.
type evaluateHot struct {
	text   string
	pool   []evalQuery
	refs   [][][]string
	rng    [2]*rand.Rand
	replay replayCopy
	sample sampler
}

const evalPoolSize = 100

func newEvaluateHot(r *rand.Rand, seed int64) (*evaluateHot, error) {
	facts := example1Facts(r, ex1Customers, ex1Records, ex1Styles)
	w := &evaluateHot{text: renderFacts(facts), pool: example1Pool(r, evalPoolSize, ex1Customers, ex1Records, ex1Styles)}
	if err := checkBodySize(w.text); err != nil {
		return nil, err
	}
	ref := newRefDB(facts)
	for _, eq := range w.pool {
		q, err := parseRule(eq.query)
		if err != nil {
			return nil, err
		}
		ans, err := refEval(q, ref)
		if err != nil {
			return nil, err
		}
		w.refs = append(w.refs, ans)
	}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(seed*17 + int64(c)))
	}
	w.replay.text = w.text
	return w, nil
}

// checkBodySize keeps instance loads under the server's 8 MiB body cap
// (a larger body gets a 400), with room for the JSON envelope.
func checkBodySize(text string) error {
	if len(text) > 7<<20 {
		return fmt.Errorf("instance text is %d bytes, over the request body cap", len(text))
	}
	return nil
}

func (w *evaluateHot) clients() int { return 2 }

func (w *evaluateHot) prepareTrace() error { return w.replay.warm(w.pool) }

func (w *evaluateHot) setup(t *target) error {
	if _, _, err := t.postJSON("POST", "/instances", server.InstanceRequest{Name: "ex1", Atoms: w.text}); err != nil {
		return err
	}
	for i := range w.pool {
		if _, _, err := w.evaluate(t, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *evaluateHot) evaluate(t *target, i int) (evaluateBody, time.Duration, error) {
	eq := w.pool[i]
	var got evaluateBody
	body, lat, err := t.postJSON("POST", "/evaluate", server.EvaluateRequest{Query: eq.query, Deps: eq.deps, Instance: "ex1", DeadlineMS: deadlineMS})
	if err != nil {
		return got, lat, err
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, lat, fmt.Errorf("decode /evaluate: %w", err)
	}
	if err := sameAnswers(got.Answers, w.refs[i]); err != nil {
		return got, lat, fmt.Errorf("%s: %w", eq.query, err)
	}
	return got, lat, nil
}

func (w *evaluateHot) step(t *target, c int, rec *recorder, tr *tracer) {
	i := w.rng[c].Intn(len(w.pool))
	start := time.Now()
	got, lat, err := w.evaluate(t, i)
	rec.add(kindRead, lat, 1, err)
	if err == nil && tr != nil && w.sample.take(c) {
		r := tr.begin(start, lat)
		w.replay.client(c).replayEvaluate(r, w.pool[i], got)
		r.commit()
	}
}

// replayCopy is the traced run's own parsed copy of an instance, built
// by prepareTrace so untraced runs do not hold it, with one replay state
// per client over it.
type replayCopy struct {
	text    string
	mu      sync.RWMutex
	clients [2]*evalReplay
}

// warm parses the copy and compiles and runs every pool query once per
// client.
func (rc *replayCopy) warm(pool []evalQuery) error {
	db, err := instance.Parse(rc.text)
	if err != nil {
		return err
	}
	for i := range rc.clients {
		rc.clients[i] = newEvalReplay(&rc.mu, db)
		for _, eq := range pool {
			if err := rc.clients[i].warm(eq); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rc *replayCopy) client(c int) *evalReplay { return rc.clients[c] }

// ---- patch-evaluate -----------------------------------------------

// patchEvaluate: a ~100k-atom graph with Σ = ∅ and acyclic anchored
// queries. Client 0 loops PATCH of a 0.5% delta, then /evaluate; client
// 1 only evaluates. Writes share the instance lock and the Yannakakis
// reducer state with reads.
type patchEvaluate struct {
	text   string
	pool   []evalQuery
	deltas [][]fact
	// refs[s][i] answers query i in state s: s = 0 is the base graph,
	// s = k+1 the base plus delta set k.
	refs      [][][][]string
	rng       [2]*rand.Rand
	replay    replayCopy
	baseEpoch uint64
	patches   int // PATCHes applied to the current server (client 0 only)
	sample    sampler
}

const (
	graphPoolSize = 32
	deltaSets     = 8
)

func newPatchEvaluate(r *rand.Rand, seed int64) (*patchEvaluate, error) {
	facts := graphFacts(r, graphNodes, graphOutDegree, graphUnary)
	w := &patchEvaluate{text: renderFacts(facts), pool: graphPool(r, graphPoolSize, graphNodes)}
	if err := checkBodySize(w.text); err != nil {
		return nil, err
	}
	w.deltas = graphDeltas(r, facts, w.pool, deltaSets, graphNodes, deltaSize)
	base := newRefDB(facts)
	states := []refDB{nil}
	for _, d := range w.deltas {
		states = append(states, newRefDB(d))
	}
	for s := range states {
		layers := []refDB{base}
		if s > 0 {
			layers = append(layers, states[s])
		}
		var answers [][][]string
		for _, eq := range w.pool {
			q, err := parseRule(eq.query)
			if err != nil {
				return nil, err
			}
			ans, err := refEval(q, layers...)
			if err != nil {
				return nil, err
			}
			answers = append(answers, ans)
		}
		w.refs = append(w.refs, answers)
	}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(seed*13 + int64(c)))
	}
	w.replay.text = w.text
	return w, nil
}

func (w *patchEvaluate) clients() int { return 2 }

func (w *patchEvaluate) prepareTrace() error { return w.replay.warm(w.pool) }

func (w *patchEvaluate) setup(t *target) error {
	body, _, err := t.postJSON("POST", "/instances", server.InstanceRequest{Name: "graph", Atoms: w.text})
	if err != nil {
		return err
	}
	var info server.InstanceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("decode /instances: %w", err)
	}
	w.baseEpoch, w.patches = info.Epoch, 0
	for i := range w.pool {
		if _, _, err := w.evaluate(t, i); err != nil {
			return err
		}
	}
	return nil
}

// state maps an echoed epoch to the reference state: PATCH k (1-based)
// inserts delta set (k-1)/2 when k is odd and deletes it when k is even.
func (w *patchEvaluate) state(epoch uint64) (int, error) {
	if epoch < w.baseEpoch {
		return 0, fmt.Errorf("epoch %d precedes the load epoch %d", epoch, w.baseEpoch)
	}
	k := int(epoch - w.baseEpoch)
	if k%2 == 0 {
		return 0, nil
	}
	return 1 + (k-1)/2%deltaSets, nil
}

func (w *patchEvaluate) evaluate(t *target, i int) (evaluateBody, time.Duration, error) {
	eq := w.pool[i]
	var got evaluateBody
	body, lat, err := t.postJSON("POST", "/evaluate", server.EvaluateRequest{Query: eq.query, Deps: eq.deps, Instance: "graph", DeadlineMS: deadlineMS})
	if err != nil {
		return got, lat, err
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, lat, fmt.Errorf("decode /evaluate: %w", err)
	}
	s, err := w.state(got.Epoch)
	if err != nil {
		return got, lat, err
	}
	if err := sameAnswers(got.Answers, w.refs[s][i]); err != nil {
		return got, lat, fmt.Errorf("%s at epoch %d: %w", eq.query, got.Epoch, err)
	}
	return got, lat, nil
}

// patch sends the next PATCH and checks the epoch and the net counts.
func (w *patchEvaluate) patch(t *target) (server.PatchResponse, string, string, time.Duration, error) {
	k := w.patches + 1
	set := renderFacts(w.deltas[(k-1)/2%deltaSets])
	req := server.PatchRequest{}
	if k%2 == 1 {
		req.Insert = set
	} else {
		req.Delete = set
	}
	var got server.PatchResponse
	body, lat, err := t.postJSON("PATCH", "/instances/graph", req)
	if err != nil {
		return got, req.Insert, req.Delete, lat, err
	}
	w.patches = k
	if err := json.Unmarshal(body, &got); err != nil {
		return got, req.Insert, req.Delete, lat, fmt.Errorf("decode PATCH: %w", err)
	}
	if got.Epoch != w.baseEpoch+uint64(k) || got.Inserted+got.Deleted != deltaSize {
		return got, req.Insert, req.Delete, lat, fmt.Errorf("PATCH %d: epoch %d (want %d), inserted %d, deleted %d (want %d net)",
			k, got.Epoch, w.baseEpoch+uint64(k), got.Inserted, got.Deleted, deltaSize)
	}
	return got, req.Insert, req.Delete, lat, nil
}

func (w *patchEvaluate) step(t *target, c int, rec *recorder, tr *tracer) {
	if c == 0 {
		start := time.Now()
		got, ins, del, lat, err := w.patch(t)
		rec.add(kindWrite, lat, 1, err)
		if err == nil && tr != nil {
			r := tr.begin(start, lat)
			w.replay.client(c).replayPatch(r, ins, del, got)
			r.commit()
		}
	}
	i := w.rng[c].Intn(len(w.pool))
	start := time.Now()
	got, lat, err := w.evaluate(t, i)
	rec.add(kindRead, lat, 1, err)
	if err == nil && tr != nil && w.sample.take(c) {
		r := tr.begin(start, lat)
		w.replay.client(c).replayEvaluate(r, w.pool[i], got)
		r.commit()
	}
}
