package main

import (
	"encoding/json"
	"strings"
	"sync"
	"time"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/server"
)

// This file replays sampled requests through the packages' public
// functions for the traced run (see trace.go). Each replay mirrors what
// the server's handler calls for that request, with the server's
// options, so the child spans account for the request's library time.

// replayKeys replays parsing and canonical-key construction.
func replayKeys(r *reqTrace, query, depsText string) (*cq.CQ, *deps.Set, bool) {
	var q *cq.CQ
	var err error
	r.call("parse.query", func() { q, err = cq.Parse(query) })
	if err != nil {
		return nil, nil, false
	}
	set := &deps.Set{}
	if strings.TrimSpace(depsText) != "" {
		r.call("parse.deps", func() { set, err = deps.Parse(depsText) })
		if err != nil {
			return nil, nil, false
		}
	}
	r.call("canon.key", func() { _, _ = q.CanonicalKey(), set.String() })
	return q, set, true
}

// replayDecision replays a decision cache miss: preparing the
// containment checker, the decision itself, and the response encoding.
// The decision's per-layer wall times become child spans of core.decide
// and its counts are added to the request.
func replayDecision(r *reqTrace, q *cq.CQ, set *deps.Set, budget int) {
	var prep *containment.Prepared
	var err error
	r.call("containment.prepare", func() { prep, err = containment.Prepare(q, set, containment.Options{}) })
	if err != nil {
		return
	}
	disjuncts, _ := prep.RewriteSize()
	r.count("rewrite.disjuncts", float64(disjuncts))

	var res *core.Result
	decideID := r.call("core.decide", func() {
		res, err = core.Decide(q, set, core.Options{SearchBudget: budget, Prepared: prep})
	})
	if err != nil {
		return
	}
	r.count("containment.checks", float64(prep.Checks()))
	if st := res.Stats; st != nil {
		at := r.spans[len(r.spans)-1]
		start := r.tr.start.Add(time.Duration(at.Start))
		for _, l := range st.Layers {
			d := l.WallNS.Duration()
			r.add(decideID, "core.layer."+l.Name, start, d)
			start = start.Add(d)
			// The complete layer records -1 when no candidate was decisive.
			r.count("core.layer."+l.Name+".candidates", float64(max(l.Candidates, 0)))
		}
		r.count("chase.atoms", float64(st.Chase.Atoms))
		r.count("hom.backtracks", float64(st.Hom.Backtracks))
	}
	r.call("serialize", func() {
		resp := server.DecideResponse{Verdict: res.Verdict.String(), Definitive: res.Definitive, Layer: res.Layer, Bound: res.Bound}
		if res.Witness != nil {
			resp.Witness = res.Witness.String()
		}
		if res.Stats != nil {
			resp.Fingerprint = res.Stats.DeterministicFingerprint()
		}
		_, _ = json.Marshal(&resp)
	})

	// Probes: the first layer's core and acyclicity test, the
	// classification behind the witness bound, and the layer-3 chase
	// with the options that layer uses.
	var c *cq.CQ
	r.probeCall("hom.core", func() { c = hom.Core(q) })
	r.probeCall("hypergraph.acyclic", func() { _ = hypergraph.IsAcyclic(c.Atoms) })
	r.probeCall("deps.classify", func() { _ = set.Classes() })
	if reached(res, "chase-subset") {
		r.probeCall("chase", func() {
			_, _, _ = chase.Query(q, set, chase.Options{MaxDepth: q.Size() + len(set.TGDs) + 2, MaxSteps: 2000})
		})
	}
}

func reached(res *core.Result, layer string) bool {
	if res.Stats == nil {
		return false
	}
	for _, l := range res.Stats.Layers {
		if l.Name == layer {
			return true
		}
	}
	return false
}

// evalReplay is a client's replay-side state for /evaluate: its own
// parsed copy of the instance, compiled plans and reducer states.
type evalReplay struct {
	mu     *sync.RWMutex // guards db against a concurrent delta replay
	db     *instance.Instance
	plans  map[string]*core.Plan
	states map[string]*core.ReducerState
}

func newEvalReplay(mu *sync.RWMutex, db *instance.Instance) *evalReplay {
	return &evalReplay{mu: mu, db: db, plans: map[string]*core.Plan{}, states: map[string]*core.ReducerState{}}
}

// warm compiles eq's plan and runs it once, leaving the reducer state a
// warmed server holds.
func (e *evalReplay) warm(eq evalQuery) error {
	q, err := cq.Parse(eq.query)
	if err != nil {
		return err
	}
	set := &deps.Set{}
	if strings.TrimSpace(eq.deps) != "" {
		if set, err = deps.Parse(eq.deps); err != nil {
			return err
		}
	}
	key := eq.query + "\x00" + eq.deps
	p, err := core.CompilePlan(q, set, core.Options{}, core.MethodAuto)
	if err != nil {
		return err
	}
	e.plans[key] = p
	_, _, next, err := p.ExecuteIncremental(e.db, nil, core.EvalOptions{})
	e.states[key] = next
	return err
}

// evaluateBody is the part of an /evaluate answer the benchmark reads.
type evaluateBody struct {
	Method     string     `json:"method"`
	Verdict    string     `json:"verdict"`
	Free       []string   `json:"free"`
	Answers    [][]string `json:"answers"`
	PlanCached bool       `json:"plan_cached"`
	Epoch      uint64     `json:"epoch"`
}

// replayEvaluate replays an /evaluate: keys, the plan compile when the
// server compiled too (a probe otherwise, once per query), execution by
// the plan's method, and the response encoding. A Yannakakis plan runs
// incrementally against the client's retained reducer state, as the
// server does; a from-scratch run of the same plan is a probe that
// supplies the Yannakakis row counts.
func (e *evalReplay) replayEvaluate(r *reqTrace, eq evalQuery, got evaluateBody) {
	q, set, ok := replayKeys(r, eq.query, eq.deps)
	if !ok {
		return
	}
	key := eq.query + "\x00" + eq.deps
	p := e.plans[key]
	if p == nil || !got.PlanCached {
		var err error
		compile := func() { p, err = core.CompilePlan(q, set, core.Options{}, core.MethodAuto) }
		if got.PlanCached {
			r.probeCall("plan.compile", compile)
		} else {
			r.call("plan.compile", compile)
		}
		if err != nil {
			return
		}
		e.plans[key] = p
	}
	e.mu.RLock()
	if p.Incremental() {
		r.call("yannakakis.incremental", func() {
			_, st, next, err := p.ExecuteIncremental(e.db, e.states[key], core.EvalOptions{})
			if err != nil {
				return
			}
			e.states[key] = next
			r.count("yannakakis.trees_reused", float64(st.TreesReused))
			r.count("yannakakis.trees_repaired", float64(st.TreesRepaired))
			r.count("yannakakis.trees_recomputed", float64(st.TreesRecomputed))
		})
		r.probeCall("yannakakis.execute", func() {
			_, st, err := p.Execute(e.db, core.EvalOptions{})
			if err != nil {
				return
			}
			r.count("yannakakis.rows_scanned", float64(st.RowsScanned))
			r.count("yannakakis.index_hits", float64(st.IndexHits))
			r.count("yannakakis.join_rows", float64(st.JoinRows))
		})
	} else {
		r.call(p.Method+".execute", func() { _, _, _ = p.Execute(e.db, core.EvalOptions{}) })
	}
	e.mu.RUnlock()
	r.count("answers", float64(len(got.Answers)))
	r.count("evaluates", 1)
	r.call("serialize", func() {
		_, _ = json.Marshal(&server.EvaluateResponse{Method: got.Method, Verdict: got.Verdict, Free: got.Free,
			Answers: got.Answers, PlanCached: got.PlanCached, Epoch: got.Epoch})
	})
}

// replayPatch replays a PATCH: parsing the atoms, applying the delta to
// the replay copy under its write lock (counting the net atoms the
// DeltaResult reports), and the response encoding.
func (e *evalReplay) replayPatch(r *reqTrace, ins, del string, got server.PatchResponse) {
	var insAtoms, delAtoms []instance.Atom
	var err error
	r.call("parse.atoms", func() {
		if insAtoms, err = instance.ParseAtoms(ins); err == nil {
			delAtoms, err = instance.ParseAtoms(del)
		}
	})
	if err != nil {
		return
	}
	e.mu.Lock()
	r.call("instance.apply_delta", func() {
		if res, err := e.db.ApplyDelta(insAtoms, delAtoms); err == nil {
			r.count("instance.delta_atoms", float64(res.Inserted+res.Deleted))
		}
	})
	e.mu.Unlock()
	r.call("serialize", func() { _, _ = json.Marshal(&got) })
}
