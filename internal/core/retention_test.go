package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// TestIncrementalStatesReleaseOldViews: reducer states kept across
// epochs must not pin the interned views they ran over. A relation of
// the first epoch's view, rebuilt by every later batch, must become
// collectable while every state returned along the way is still held.
func TestIncrementalStatesReleaseOldViews(t *testing.T) {
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	p, err := CompilePlan(q, &deps.Set{}, Options{}, "")
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	v := func(i int) term.Term { return term.Const(fmt.Sprintf("v%d", i)) }
	db := instance.New()
	for i := 0; i < 40; i++ {
		if err := db.Add(instance.NewAtom("E", v(i), v(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	var freed atomic.Bool
	func() {
		rel := db.Interned().Relation("E")
		runtime.SetFinalizer(rel, func(*instance.InternedRelation) { freed.Store(true) })
	}()

	_, _, state, err := p.ExecuteIncremental(db, nil, EvalOptions{})
	if err != nil {
		t.Fatalf("cold ExecuteIncremental: %v", err)
	}
	states := []*ReducerState{state}
	for i := 0; i < 4; i++ {
		ins := []instance.Atom{instance.NewAtom("E", v(40+i), v(41+i))}
		del := []instance.Atom{instance.NewAtom("E", v(i), v(i+1))}
		if _, err := db.ApplyDelta(ins, del); err != nil {
			t.Fatalf("batch %d: ApplyDelta: %v", i, err)
		}
		_, st, next, err := p.ExecuteIncremental(db, state, EvalOptions{})
		if err != nil {
			t.Fatalf("batch %d: ExecuteIncremental: %v", i, err)
		}
		if st.TreesRecomputed != int64(p.compiled.NumTrees()) {
			t.Fatalf("batch %d: a delete should recompute, got %s", i, st.Fingerprint())
		}
		states = append(states, next)
		state = next
	}

	for i := 0; i < 50 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the first epoch's E relation is still reachable from the retained states")
	}
	runtime.KeepAlive(states)
}
