package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func benchDB(size, domain int) *instance.Instance {
	r := rand.New(rand.NewSource(1))
	db := instance.New()
	for i := 0; i < size; i++ {
		db.Add(instance.NewAtom("E",
			term.Const(fmt.Sprintf("c%d", r.Intn(domain))),
			term.Const(fmt.Sprintf("c%d", r.Intn(domain)))))
	}
	return db
}

func BenchmarkEvaluatePath3(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(q, db)
	}
}

func BenchmarkEvaluateBoolTriangle(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateBool(q, db)
	}
}

func BenchmarkCore8Atoms(b *testing.B) {
	q := cq.MustParse("q :- E(a,b), E(b,c), E(c,d), E(a,e), E(e,f), E(a,g), E(g,h), E(h,b).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Core(q)
	}
}

func BenchmarkContainment(b *testing.B) {
	q := cq.MustParse("q(x) :- E(x,y), E(y,z), E(z,w), E(w,v).")
	qp := cq.MustParse("q(x) :- E(x,y), E(y,z).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Contained(q, qp) {
			b.Fatal("containment lost")
		}
	}
}

// naiveTupleKey is the pre-optimization key construction (plain byte
// append, reallocating as it grows), kept as the ablation baseline for
// the allocation benchmarks below.
func naiveTupleKey(ts []term.Term) string {
	var b []byte
	for _, t := range ts {
		b = append(b, byte(t.K))
		b = append(b, t.Name...)
		b = append(b, 0)
	}
	return string(b)
}

func benchTuple(n int) []term.Term {
	out := make([]term.Term, n)
	for i := range out {
		out[i] = term.Const(fmt.Sprintf("const-value-%d", i))
	}
	return out
}

// BenchmarkTupleKeyNaive / BenchmarkTupleKeyBuilder: the exact-Grow
// builder materializes a key in one allocation where the byte-append
// version pays one per growth step.
func BenchmarkTupleKeyNaive(b *testing.B) {
	tuple := benchTuple(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naiveTupleKey(tuple) == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkTupleKeyBuilder(b *testing.B) {
	tuple := benchTuple(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tupleKey(tuple) == "" {
			b.Fatal("empty key")
		}
	}
}

// TestAllocsProgramFlatInCandidates is the regression guard for the
// compiled Program's inner loop: scanning candidates and probing fully
// bound atoms must not allocate, so a run's allocation count depends on
// the query and its answers, not on how many rows the search touches.
// The ci.sh `-run 'Allocs'` gate runs this without -race on every push.
func TestAllocsProgramFlatInCandidates(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	// Fruitless two-hop search: every E-E path ends in a probe of Stop
	// that fails, so the answer set stays empty at every size.
	q := cq.MustParse("q(x) :- E(x,y), E(y,z), Stop(z).")
	p := Compile(q)
	var cands [2]int64
	var allocs [2]float64
	for i, size := range []int{200, 4000} {
		db := benchDB(size, 200)
		if err := db.Add(instance.NewAtom("Stop", term.Const("outside"))); err != nil {
			t.Fatal(err)
		}
		iv := db.Interned()
		e := p.newExec(iv, nil)
		e.run() // also builds the sorted rows before measuring
		cands[i] = e.cands
		allocs[i] = testing.AllocsPerRun(20, func() {
			if ans, _ := p.Execute(iv, nil); len(ans) != 0 {
				t.Fatal("fruitless query found answers")
			}
		})
	}
	if cands[1] < 100*cands[0] {
		t.Fatalf("candidates %d vs %d: fixture does not scale the search", cands[0], cands[1])
	}
	if allocs[1] != allocs[0] {
		t.Fatalf("allocs/op grew with candidates scanned: %v at %d candidates, %v at %d",
			allocs[0], cands[0], allocs[1], cands[1])
	}
}

// BenchmarkEvaluateAllocsPath3 measures the full evaluation pipeline's
// allocation profile: answer dedup probes a reused key buffer and the
// final sort compares retained keys instead of re-deriving them.
func BenchmarkEvaluateAllocsPath3(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w).")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(q, db)
	}
}
