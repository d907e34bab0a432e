package yannakakis

// Differential tests for the incremental evaluator: ExecuteDelta over
// a journalled delta sequence must agree answer-for-answer with a full
// Execute on the current instance at every step, its deterministic
// stats must fingerprint identically across independent replays of
// the same sequence, and a shared ReducerState must be safe to repair
// from concurrent goroutines (CI runs this file under -race).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// applyScript replays a delta script (one batch per step) against db,
// returning the journalled deltas and epochs after each batch.
type deltaStep struct {
	ins, del []instance.Atom
}

// TestDifferentialDeltaVsFull drives random delta sequences against
// random instances and checks every incremental answer set against a
// from-scratch evaluation of the same plan on the current atoms. All
// three per-tree decisions (reuse, repair, recompute) must be
// exercised across the run.
func TestDifferentialDeltaVsFull(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var reused, repaired, recomputed int64
	for trial := 0; trial < 40; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: generated query %s is not acyclic", trial, q)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		db := gen.RandomGraphDB(r, 40+r.Intn(200), 2+r.Intn(10))

		ans, state, err := c.ExecuteState(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: ExecuteState: %v", trial, err)
		}
		full, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}
		if !sameAnswers(ans, full) {
			t.Fatalf("trial %d: ExecuteState answers diverge from Execute", trial)
		}

		epoch := db.Epoch()
		for step := 0; step < 6; step++ {
			nIns := r.Intn(4)
			nDel := 0
			if r.Intn(3) == 0 {
				nDel = 1 + r.Intn(2)
			}
			ins, del := gen.RandomDelta(r, db, nIns, nDel)
			res, err := db.ApplyDelta(ins, del)
			if err != nil {
				t.Fatalf("trial %d step %d: ApplyDelta: %v", trial, step, err)
			}
			deltas, ok := db.DeltaSince(epoch)
			if !ok {
				t.Fatalf("trial %d step %d: DeltaSince(%d) not bridgeable", trial, step, epoch)
			}
			var st obs.EvalStats
			got, next, err := c.ExecuteDelta(state, db, deltas, Options{Stats: &st})
			if err != nil {
				t.Fatalf("trial %d step %d: ExecuteDelta: %v", trial, step, err)
			}
			want, err := c.Execute(db, Options{})
			if err != nil {
				t.Fatalf("trial %d step %d: Execute: %v", trial, step, err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("trial %d step %d: incremental answers diverge\nquery %s\ndelta +%v -%v\ngot  %v\nwant %v",
					trial, step, q, ins, del, got, want)
			}
			if got2 := next.Answers(); !sameAnswers(got2, want) {
				t.Fatalf("trial %d step %d: state.Answers diverges from answers", trial, step)
			}
			if n := st.TreesReused + st.TreesRepaired + st.TreesRecomputed; n != int64(c.NumTrees()) {
				t.Fatalf("trial %d step %d: decision split %d+%d+%d does not cover %d trees",
					trial, step, st.TreesReused, st.TreesRepaired, st.TreesRecomputed, c.NumTrees())
			}
			reused += st.TreesReused
			repaired += st.TreesRepaired
			recomputed += st.TreesRecomputed
			state = next
			epoch = res.Epoch
		}
	}
	if reused == 0 || repaired == 0 || recomputed == 0 {
		t.Fatalf("decision coverage incomplete: reused=%d repaired=%d recomputed=%d",
			reused, repaired, recomputed)
	}
}

// TestDeltaFingerprintDeterminism replays one delta sequence against
// two independently built (but identical) instances and requires
// byte-identical EvalStats fingerprints at every step; within one
// replay the repair runs concurrently from several goroutines sharing
// the plan and the state, all of which must observe the same
// fingerprint.
func TestDeltaFingerprintDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: query not acyclic", trial)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}

		seed := r.Int63()
		build := func() (*instance.Instance, []deltaStep) {
			rr := rand.New(rand.NewSource(seed))
			db := gen.RandomGraphDB(rr, 60+rr.Intn(100), 2+rr.Intn(8))
			var script []deltaStep
			probe := db.Clone()
			for i := 0; i < 5; i++ {
				ins, del := gen.RandomDelta(rr, probe, rr.Intn(4), rr.Intn(2))
				if _, err := probe.ApplyDelta(ins, del); err != nil {
					t.Fatalf("trial %d: scripted ApplyDelta: %v", trial, err)
				}
				script = append(script, deltaStep{ins: ins, del: del})
			}
			return db, script
		}

		replay := func(parallelism int) []string {
			db, script := build()
			_, state, err := c.ExecuteState(db, Options{})
			if err != nil {
				t.Fatalf("trial %d: ExecuteState: %v", trial, err)
			}
			epoch := db.Epoch()
			var fps []string
			for si, step := range script {
				if _, err := db.ApplyDelta(step.ins, step.del); err != nil {
					t.Fatalf("trial %d step %d: ApplyDelta: %v", trial, si, err)
				}
				deltas, ok := db.DeltaSince(epoch)
				if !ok {
					t.Fatalf("trial %d step %d: DeltaSince not bridgeable", trial, si)
				}
				results := make([]string, parallelism)
				states := make([]*ReducerState, parallelism)
				var wg sync.WaitGroup
				for g := 0; g < parallelism; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var st obs.EvalStats
						_, next, err := c.ExecuteDelta(state, db, deltas, Options{Stats: &st})
						if err != nil {
							results[g] = fmt.Sprintf("error: %v", err)
							return
						}
						results[g] = st.Fingerprint()
						states[g] = next
					}(g)
				}
				wg.Wait()
				for g := 1; g < parallelism; g++ {
					if results[g] != results[0] {
						t.Fatalf("trial %d step %d: goroutine %d fingerprint %q != %q",
							trial, si, g, results[g], results[0])
					}
				}
				fps = append(fps, results[0])
				state = states[0]
				if state == nil {
					t.Fatalf("trial %d step %d: %s", trial, si, results[0])
				}
				epoch = db.Epoch()
			}
			return fps
		}

		for _, par := range []int{1, 4, 8} {
			a := replay(par)
			b := replay(par)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d parallelism %d step %d: fingerprint %q != %q on replay",
						trial, par, i, a[i], b[i])
				}
			}
		}
	}
}

// TestDeltaIncompleteStateFallsBack: a run cut short by an empty node
// yields an incomplete state; repairing from it must fall back to a
// full recompute and still produce correct answers once inserts make
// the query satisfiable.
func TestDeltaIncompleteStateFallsBack(t *testing.T) {
	q := cq.MustParse("q(x) :- E(x,y), P(y).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query not acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db := instance.MustFromAtoms(instance.NewAtom("E", term.Const("a"), term.Const("b")))
	db.Schema().Add("P", 1)

	ans, state, err := c.ExecuteState(db, Options{})
	if err != nil {
		t.Fatalf("ExecuteState: %v", err)
	}
	if len(ans) != 0 {
		t.Fatalf("answers = %v, want none (P empty)", ans)
	}
	epoch := db.Epoch()

	if _, err := db.ApplyDelta([]instance.Atom{instance.NewAtom("P", term.Const("b"))}, nil); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	deltas, ok := db.DeltaSince(epoch)
	if !ok {
		t.Fatal("DeltaSince not bridgeable")
	}
	var st obs.EvalStats
	got, next, err := c.ExecuteDelta(state, db, deltas, Options{Stats: &st})
	if err != nil {
		t.Fatalf("ExecuteDelta: %v", err)
	}
	if len(got) != 1 || got[0][0] != term.Const("a") {
		t.Fatalf("answers = %v, want [[a]]", got)
	}
	if st.TreesRecomputed != int64(c.NumTrees()) {
		t.Fatalf("TreesRecomputed = %d, want %d (incomplete state must recompute)",
			st.TreesRecomputed, c.NumTrees())
	}
	if next == nil || next.incomplete {
		t.Fatalf("recovered state should be complete, got %+v", next)
	}
}

// TestExecuteViewOverlay: evaluating the compiled plan over an
// overlay's patched view equals evaluating over the materialized
// overlay instance — and the base instance's own answers are
// untouched.
func TestExecuteViewOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: query not acyclic", trial)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		db := gen.RandomGraphDB(r, 50+r.Intn(150), 2+r.Intn(8))
		baseWant, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(base): %v", trial, err)
		}

		ins, del := gen.RandomDelta(r, db, 1+r.Intn(4), r.Intn(3))
		ov, err := db.NewOverlay(ins, del)
		if err != nil {
			t.Fatalf("trial %d: NewOverlay: %v", trial, err)
		}
		got, err := c.ExecuteView(ov.Interned(), Options{})
		if err != nil {
			t.Fatalf("trial %d: ExecuteView: %v", trial, err)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatalf("trial %d: Materialize: %v", trial, err)
		}
		want, err := c.Execute(mat, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(materialized): %v", trial, err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("trial %d: overlay answers diverge\ngot  %v\nwant %v", trial, got, want)
		}

		baseAgain, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(base again): %v", trial, err)
		}
		if !sameAnswers(baseAgain, baseWant) {
			t.Fatalf("trial %d: overlay evaluation disturbed the base", trial)
		}
		if ov.Stale() {
			t.Fatalf("trial %d: overlay reported stale without base mutation", trial)
		}
	}
}

// TestDeltaNetAcrossBatches: atoms inserted then deleted, deleted then
// reinserted, and inserted, deleted and reinserted over several
// journalled batches net out against the state's epoch. From a state
// at every epoch of the sequence, ExecuteDelta must answer exactly as
// a full run on the current instance, and DeltaInserts/DeltaDeletes
// must equal the counts of each atom's last operation compared with
// its presence in a snapshot taken at the state's epoch.
func TestDeltaNetAcrossBatches(t *testing.T) {
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query not acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p := func(a string) instance.Atom { return instance.NewAtom("P", term.Const(a)) }
	db := mustDB(t, edge("a", "b"), edge("b", "c"), edge("c", "d"), edge("d", "a"), edge("c", "w"))
	x, y, z, w := edge("b", "x"), edge("b", "c"), edge("d", "z"), edge("c", "w")
	batches := []deltaStep{
		{ins: []instance.Atom{x, z, p("a")}, del: []instance.Atom{y, w}},
		{ins: []instance.Atom{y, w, edge("a", "u")}, del: []instance.Atom{x, z}},
		{ins: []instance.Atom{z}, del: []instance.Atom{w, edge("d", "a"), p("a")}},
	}

	type snap struct {
		state *ReducerState
		db    *instance.Instance
		epoch uint64
	}
	_, state, err := c.ExecuteState(db, Options{})
	if err != nil {
		t.Fatalf("ExecuteState: %v", err)
	}
	snaps := []snap{{state, db.Clone(), db.Epoch()}}
	for i, b := range batches {
		if _, err := db.ApplyDelta(b.ins, b.del); err != nil {
			t.Fatalf("batch %d: ApplyDelta: %v", i, err)
		}
		deltas, ok := db.DeltaSince(snaps[i].epoch)
		if !ok {
			t.Fatalf("batch %d: DeltaSince not bridgeable", i)
		}
		_, next, err := c.ExecuteDelta(snaps[i].state, db, deltas, Options{})
		if err != nil {
			t.Fatalf("batch %d: ExecuteDelta: %v", i, err)
		}
		snaps = append(snaps, snap{next, db.Clone(), db.Epoch()})
	}

	want, err := c.Execute(db, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	for _, s := range snaps[:len(batches)] {
		deltas, ok := db.DeltaSince(s.epoch)
		if !ok {
			t.Fatalf("epoch %d: DeltaSince not bridgeable", s.epoch)
		}
		var st obs.EvalStats
		got, _, err := c.ExecuteDelta(s.state, db, deltas, Options{Stats: &st})
		if err != nil {
			t.Fatalf("epoch %d: ExecuteDelta: %v", s.epoch, err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("epoch %d: answers %v, want %v", s.epoch, got, want)
		}

		// Each atom's last operation against its presence at the
		// state's epoch.
		last := make(map[string]bool)
		var order []instance.Atom
		for _, d := range deltas {
			for _, ops := range []struct {
				atoms []instance.Atom
				ins   bool
			}{{d.Deletes, false}, {d.Inserts, true}} {
				for _, a := range ops.atoms {
					if a.Pred != "E" {
						continue
					}
					if _, seen := last[a.Key()]; !seen {
						order = append(order, a)
					}
					last[a.Key()] = ops.ins
				}
			}
		}
		var wantIns, wantDel int64
		for _, a := range order {
			was := s.db.Has(a)
			switch ins := last[a.Key()]; {
			case ins && !was:
				wantIns++
			case !ins && was:
				wantDel++
			}
		}
		if st.DeltaInserts != wantIns || st.DeltaDeletes != wantDel {
			t.Fatalf("epoch %d: DeltaInserts/DeltaDeletes = %d/%d, want %d/%d",
				s.epoch, st.DeltaInserts, st.DeltaDeletes, wantIns, wantDel)
		}
		if s.epoch == snaps[0].epoch && (wantIns != 2 || wantDel != 2) {
			// z and a→u net in; w and d→a net out; x and y end where
			// they started.
			t.Fatalf("from the first epoch: net +%d -%d, want +2 -2", wantIns, wantDel)
		}
	}
}
