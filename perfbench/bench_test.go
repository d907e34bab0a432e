package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/server"
)

func mustDeps(t *testing.T, text string) *deps.Set {
	t.Helper()
	if strings.TrimSpace(text) == "" {
		return &deps.Set{}
	}
	set, err := deps.Parse(text)
	if err != nil {
		t.Fatalf("deps %q: %v", text, err)
	}
	return set
}

// decideAsServer decides an item the way the server does: a prepared
// checker for (q, Σ), then the decision with the item's budget.
func decideAsServer(t *testing.T, it decideItem) decideBody {
	t.Helper()
	q, err := cq.Parse(it.query)
	if err != nil {
		t.Fatalf("query %q: %v", it.query, err)
	}
	set := mustDeps(t, it.deps)
	prep, err := containment.Prepare(q, set, containment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Decide(q, set, core.Options{SearchBudget: it.budget, Prepared: prep})
	if err != nil {
		t.Fatalf("decide %q under %q: %v", it.query, it.deps, err)
	}
	d := decideBody{Verdict: res.Verdict.String()}
	if res.Witness != nil {
		d.Witness = res.Witness.String()
	}
	return d
}

// Every generator family yields its claimed verdict shape, and its
// structural claims hold: acyclic queries pass GYO, cyclic items are
// cyclic cores whose Σ bodies all name a predicate absent from q, and
// each constraint class is the class the decider sees.
func TestFamiliesYieldClaimedVerdicts(t *testing.T) {
	classOK := map[string]func(*deps.Set) bool{
		"inclusion":    (*deps.Set).IsLinear,
		"guarded":      (*deps.Set).IsGuarded,
		"nonrecursive": (*deps.Set).IsNonRecursive,
		"sticky":       (*deps.Set).IsSticky,
		"keys":         (*deps.Set).IsKeys,
		"full":         (*deps.Set).IsFull,
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		pool := decidePool(rand.New(rand.NewSource(seed)), 120)
		for i := range pool {
			it := distinctItem(pool, i)
			seen[it.family]++
			q, err := parseRule(it.query)
			if err != nil {
				t.Fatal(err)
			}
			set := mustDeps(t, it.deps)
			switch it.family {
			case famAcyclic:
				if !gyoAcyclic(q.atoms) {
					t.Errorf("acyclic family item is cyclic: %s", it.query)
				}
				seen[it.class]++
				if ok := classOK[it.class]; ok == nil || !ok(set) {
					t.Errorf("set is not %s: %s", it.class, it.deps)
				}
			case famCyclic:
				pq := cq.MustParse(it.query)
				if hypergraph.IsAcyclic(hom.Core(pq).Atoms) {
					t.Errorf("cyclic family item has an acyclic core: %s", it.query)
				}
				for _, line := range strings.Split(it.deps, "\n") {
					body, _, _ := strings.Cut(line, "->")
					if !strings.Contains(body, "Z(") || strings.Contains(it.query, "Z(") {
						t.Errorf("Σ body %q does not name a predicate absent from %s", body, it.query)
					}
				}
			case famDerived:
				if !set.IsFull() || !set.IsNonRecursive() {
					t.Errorf("derived family set is not full non-recursive: %s", it.deps)
				}
			}
			if err := checkDecision(it, decideAsServer(t, it)); err != nil {
				t.Errorf("seed %d item %d: %v", seed, i, err)
			}
		}
	}
	for _, name := range []string{famAcyclic, famDerived, famCyclic, "inclusion", "guarded", "nonrecursive", "sticky", "keys", "full"} {
		if seen[name] == 0 {
			t.Errorf("no item of %s drawn", name)
		}
	}
}

// Renaming predicates under a common prefix changes every cache key but
// not the decision's search.
func TestPrefixPredsKeepsDecision(t *testing.T) {
	pool := decidePool(rand.New(rand.NewSource(7)), 40)
	for i, it := range pool {
		tagged := distinctItem(pool, i+len(pool))
		if tagged.query == it.query || !strings.Contains(tagged.query, "o") {
			t.Fatalf("prefix did not rename: %s", tagged.query)
		}
		a, b := decideAsServer(t, it), decideAsServer(t, tagged)
		if a.Verdict != b.Verdict {
			t.Errorf("%s: verdict %s, renamed %s", it.query, a.Verdict, b.Verdict)
		}
		if cq.MustParse(it.query).CanonicalKey() == cq.MustParse(tagged.query).CanonicalKey() {
			t.Errorf("renamed query shares the canonical key: %s", tagged.query)
		}
	}
	if got := prefixPreds("q(x) :- E0(x,'E1'), S(x). ", "o3"); got != "q(x) :- o3E0(x,'E1'), o3S(x). " {
		t.Errorf("prefixPreds = %q", got)
	}
}

func TestGYO(t *testing.T) {
	for _, c := range []struct {
		q       string
		acyclic bool
	}{
		{"q :- E(x,y), E(y,z).", true},
		{"q :- E(x,y), E(y,z), E(z,x).", false},
		{"q :- R(x,y,z), E(x,y), E(y,z), E(z,x).", true},
		{"q(x) :- E(x,'a'), E('a',y), E(y,x).", true},
		{"q :- E(x,y), E(y,z), E(z,w), E(w,x).", false},
	} {
		q, err := parseRule(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := gyoAcyclic(q.atoms); got != c.acyclic {
			t.Errorf("gyoAcyclic(%s) = %v", c.q, got)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		var atoms []catom
		for j, n := 0, 2+r.Intn(5); j < n; j++ {
			atoms = append(atoms, catom{pick(r, "E", 2), []string{pick(r, "v", 5), pick(r, "v", 5)}})
		}
		text := renderQuery(nil, atoms)
		q, _ := parseRule(text)
		if got, want := gyoAcyclic(q.atoms), hypergraph.IsAcyclic(cq.MustParse(text).Atoms); got != want {
			t.Errorf("gyoAcyclic(%s) = %v, hypergraph.IsAcyclic %v", text, got, want)
		}
	}
}

// The reference evaluator agrees with hom.Evaluate on small instances
// for every evaluation template and for random queries.
func TestReferenceAgreesWithHomEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ex1 := example1Facts(r, 40, 30, 6)
	graph := graphFacts(r, 60, 3, 30)
	cases := []struct {
		facts []fact
		pool  []evalQuery
	}{
		{ex1, example1Pool(r, 40, 40, 30, 6)},
		{graph, graphPool(r, 40, 60)},
	}
	var random []evalQuery
	for i := 0; i < 60; i++ {
		free, atoms := treeQuery(r, 1+r.Intn(4), map[string]int{"E": 2, "P": 1})
		random = append(random, evalQuery{"tree", renderQuery(free, atoms), ""})
		var cyc []catom
		for j, n := 0, 3+r.Intn(3); j < n; j++ {
			cyc = append(cyc, catom{"E", []string{fmt.Sprintf("v%d", j), fmt.Sprintf("v%d", (j+1)%n)}})
		}
		random = append(random, evalQuery{"cycle", renderQuery([]string{"v0"}, cyc), ""})
	}
	cases = append(cases, struct {
		facts []fact
		pool  []evalQuery
	}{graph, random})
	for _, c := range cases {
		db, err := instance.Parse(renderFacts(c.facts))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDB(c.facts)
		for _, eq := range c.pool {
			q, err := parseRule(eq.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := refEval(q, ref)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]string
			for _, tup := range hom.Evaluate(cq.MustParse(eq.query), db) {
				row := make([]string, len(tup))
				for i, x := range tup {
					row[i] = x.Name
				}
				want = append(want, row)
			}
			if err := sameAnswers(want, got); err != nil {
				t.Errorf("%s: %v", eq.query, err)
			}
		}
	}
}

// A layered reference equals a reference over the merged facts, which
// is what lets patch-evaluate answer every epoch from base plus one set.
func TestLayeredReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	base := graphFacts(r, 50, 3, 20)
	pool := graphPool(r, 20, 50)
	ds := graphDeltas(r, base, pool, 2, 50, 30)
	for _, eq := range pool {
		q, _ := parseRule(eq.query)
		layered, _ := refEval(q, newRefDB(base), newRefDB(ds[1]))
		merged, _ := refEval(q, newRefDB(append(append([]fact(nil), base...), ds[1]...)))
		if err := sameAnswers(layered, merged); err != nil {
			t.Errorf("%s: %v", eq.query, err)
		}
	}
}

func TestPatchEpochState(t *testing.T) {
	w := &patchEvaluate{baseEpoch: 10}
	for epoch, want := range map[uint64]int{10: 0, 11: 1, 12: 0, 13: 2, 25: 8, 27: 1, 28: 0} {
		if got, err := w.state(epoch); err != nil || got != want {
			t.Errorf("state(%d) = %d, %v; want %d", epoch, got, err, want)
		}
	}
	if _, err := w.state(9); err == nil {
		t.Error("an epoch before the load epoch must be rejected")
	}
}

// fakeTarget serves h on a loopback test server.
func fakeTarget(t *testing.T, h http.HandlerFunc) *target {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &target{base: ts.URL, client: ts.Client()}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// A planted wrong answer, a planted wrong verdict, a yes whose witness
// fails GYO and a planted 504 are each counted as a failed op.
func TestPlantedFailuresCounted(t *testing.T) {
	ev := &evaluateHot{
		pool: []evalQuery{{"customer", "q(y) :- Interest('c1',z), Class(y,z), Owns('c1',y).", example1Sigma}},
		refs: [][][]string{{{"r1"}, {"r2"}}},
	}
	for c := range ev.rng {
		ev.rng[c] = rand.New(rand.NewSource(int64(c)))
	}
	wrong := fakeTarget(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.EvaluateResponse{Answers: [][]string{{"r1"}, {"r3"}}})
	})
	right := fakeTarget(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.EvaluateResponse{Answers: [][]string{{"r2"}, {"r1"}}})
	})
	rec := &recorder{}
	ev.step(right, 0, rec, nil)
	ev.step(wrong, 0, rec, nil)
	ev.step(wrong, 1, rec, nil)

	cyclic := decideItem{famCyclic, "absent-body", "q :- E0(x,y), E1(y,z), E2(z,x).", "Z(x,y) -> E0(y,w).", budgetCyclic, wantNotYes}
	acyclic := decideItem{famAcyclic, "full", "q :- E0(x,y), E1(y,z).", "E0(x,y), E1(y,z) -> E2(x,z).", budgetAcyclic, wantYes}
	for _, c := range []struct {
		item decideItem
		h    http.HandlerFunc
	}{
		{cyclic, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "cancelled: deadline exceeded"})
		}},
		{cyclic, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, server.DecideResponse{Verdict: "yes", Witness: "q :- E0(x,y)."})
		}},
		{acyclic, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, server.DecideResponse{Verdict: "yes", Witness: "q :- E0(x,y), E1(y,z), E2(z,x)."})
		}},
		{acyclic, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, server.DecideResponse{Verdict: "yes", Witness: "q :- E0(x,y), E1(y,z)."})
		}},
	} {
		dc := &decideCold{pool: []decideItem{c.item}}
		dc.step(fakeTarget(t, c.h), 0, rec, nil)
	}
	if rec.attempted != 7 || rec.failed != 5 || rec.ops != 2 {
		t.Fatalf("attempted %d failed %d ops %d; want 7, 5, 2 (first error: %v)", rec.attempted, rec.failed, rec.ops, rec.firstErr)
	}
	p := &phase{attempted: rec.attempted, failed: rec.failed}
	if frac := float64(p.failed) / float64(p.attempted); frac != 5.0/7 {
		t.Errorf("failed_frac = %v", frac)
	}
}

// The decision workloads run end to end against a real server: setup, a few
// closed-loop steps untraced and traced, and no failure.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	for _, name := range []string{"decide-cold", "decide-batch-warm"} {
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := startTarget(w.clients())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(tg); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		rec, tr := &recorder{}, newTracer()
		for i := 0; i < 8; i++ {
			w.step(tg, i%w.clients(), rec, nil)
			w.step(tg, i%w.clients(), rec, tr)
		}
		if err := tg.stop(); err != nil {
			t.Fatal(err)
		}
		if rec.failed != 0 || rec.ops == 0 || tr.requests == 0 {
			t.Errorf("%s: ops %d failed %d replayed %d: %v", name, rec.ops, rec.failed, tr.requests, rec.firstErr)
		}
	}
}

// A batch is checked item by item until each item's cache-hit result
// has passed; later identical responses match byte for byte, and any
// other response is decoded and checked again.
func TestBatchChecks(t *testing.T) {
	w := &batchWarm{
		pool: []decideItem{
			{famCyclic, "absent-body", "q :- E0(x,y), E1(y,z), E2(z,x).", "Z(x,y) -> E0(y,w).", budgetCyclic, wantNotYes},
			{famAcyclic, "full", "q :- E0(x,y), E1(y,z).", "E0(x,y), E1(y,z) -> E2(x,z).", budgetAcyclic, wantYes},
		},
		itemJSON: [][]byte{[]byte(`{"query":"a"}`), []byte(`{"query":"b"}`)},
		hitJSON:  map[int][]byte{},
	}
	no, _ := json.Marshal(server.DecideResponse{Verdict: "no", Layer: "complete"})
	yes, _ := json.Marshal(server.DecideResponse{Verdict: "yes", Witness: "q :- E0(x,y), E1(y,z)."})
	bad, _ := json.Marshal(server.DecideResponse{Verdict: "yes", Witness: "q :- E0(x,y)."})
	answer := func(first json.RawMessage) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			var req server.BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Requests) != 2 || req.DeadlineMS != deadlineMS {
				t.Errorf("spliced request did not decode: %v %+v", err, req)
			}
			writeJSON(rw, http.StatusOK, server.BatchResponse{Results: []server.BatchResult{{Result: first, Cached: true}, {Result: yes, Cached: true}}})
		}
	}
	good, wrong := fakeTarget(t, answer(no)), fakeTarget(t, answer(bad))
	for k, tg := range []*target{good, good, wrong} {
		_, _, n, err := w.send(tg, []int{0, 1})
		if want := map[bool]int{true: 1, false: 0}[k == 2]; n != want {
			t.Errorf("send %d: %d wrong items (%v), want %d", k, n, err, want)
		}
		if k == 0 && (w.hitJSON[0] == nil || w.hitJSON[1] == nil) {
			t.Fatal("checked hits were not remembered")
		}
	}
}
