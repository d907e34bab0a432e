package hom

// Differential tests for the compiled Program: evaluation over the
// interned view must produce the same answer sets as a reference built
// on the map-path Enumerate, which never touches the view — on random
// queries and databases, on hand-written edge cases, and from
// concurrent read-only goroutines (CI runs this under -race).

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// randomHomCQ builds a possibly-cyclic query with occasional constants,
// an occasional unary P atom and up to two free variables — the
// general backtracking workload.
func randomHomCQ(r *rand.Rand) *cq.CQ {
	base := gen.RandomCQ(r, 2+r.Intn(4), 2+r.Intn(4), []string{"E"})
	if r.Intn(3) == 0 {
		vars := base.Vars()
		sub := term.NewSubst()
		sub[vars[r.Intn(len(vars))]] = term.Const(fmt.Sprintf("c%d", r.Intn(6)))
		base = base.ApplySubst(sub)
	}
	atoms := base.Atoms
	if vars := base.Vars(); len(vars) > 0 && r.Intn(3) == 0 {
		atoms = append(atoms, instance.NewAtom("P", vars[r.Intn(len(vars))]))
	}
	var free []term.Term
	for _, x := range base.Vars() {
		if len(free) < 2 && r.Intn(3) == 0 {
			free = append(free, x)
		}
	}
	return cq.MustNew(free, atoms)
}

// mapPathEvaluate is the reference evaluator: Enumerate over the
// ByPred/ByPos indexes, string-keyed dedup, sort by canonical key.
func mapPathEvaluate(q *cq.CQ, db *instance.Instance) [][]term.Term {
	seen := make(map[string]bool)
	var keys []string
	byKey := make(map[string][]term.Term)
	Enumerate(q.Atoms, db, nil, func(s term.Subst) bool {
		tuple := s.ResolveTuple(q.Free)
		k := tupleKey(tuple)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			byKey[k] = tuple
		}
		return true
	})
	sort.Strings(keys)
	out := make([][]term.Term, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

func eqAnswers(a, b [][]term.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference compares Evaluate, EvaluateBool and a direct
// Program run with the map-path reference and reports whether the
// answer set is nonempty.
func checkAgainstReference(t *testing.T, label string, q *cq.CQ, db *instance.Instance) bool {
	t.Helper()
	want := mapPathEvaluate(q, db)
	if got := Evaluate(q, db); !eqAnswers(got, want) {
		t.Fatalf("%s: query %s\nprogram:  %v\nmap path: %v", label, q, got, want)
	}
	direct, err := Compile(q).Execute(db.Interned(), nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(direct) != len(want) || !eqAnswers(Canonicalize(direct), want) {
		t.Fatalf("%s: query %s: direct run %v, map path %v", label, q, direct, want)
	}
	if got := EvaluateBool(q, db); got != (len(want) > 0) {
		t.Fatalf("%s: query %s: EvaluateBool %v, map path has %d answers", label, q, got, len(want))
	}
	return len(want) > 0
}

// TestDifferentialInternedCandidates: the Program agrees with the
// map-path reference on random queries and databases.
func TestDifferentialInternedCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nonEmpty := 0
	for trial := 0; trial < 60; trial++ {
		q := randomHomCQ(r)
		db := gen.RandomGraphDB(r, 40+r.Intn(250), 3+r.Intn(10))
		if checkAgainstReference(t, fmt.Sprintf("trial %d", trial), q, db) {
			nonEmpty++
		}
	}
	// Guard against a generator drift that would make every trial
	// vacuously compare empty answer sets.
	if nonEmpty < 15 {
		t.Fatalf("only %d/60 trials had nonempty answers; workload too vacuous", nonEmpty)
	}
}

// TestDifferentialProgramEdgeCases: repeated variables, constants
// absent from the view, Boolean queries, 0-ary atoms, arity mismatches
// and nulls in the database.
func TestDifferentialProgramEdgeCases(t *testing.T) {
	x, y, z := term.Var("x"), term.Var("y"), term.Var("z")
	a, b, c := term.Const("a"), term.Const("b"), term.Const("c")
	n1 := term.NullTerm("n1")
	db := instance.New()
	for _, f := range []instance.Atom{
		instance.NewAtom("E", a, a), instance.NewAtom("E", a, b), instance.NewAtom("E", b, a),
		instance.NewAtom("E", b, c), instance.NewAtom("E", c, c), instance.NewAtom("E", c, n1),
		instance.NewAtom("E", n1, a), instance.NewAtom("P", b), instance.NewAtom("P", n1),
		instance.NewAtom("Z"),
	} {
		if err := db.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		free     []term.Term
		atoms    []instance.Atom
		nonEmpty bool
	}{
		{"self-loop", []term.Term{x}, []instance.Atom{instance.NewAtom("E", x, x)}, true},
		{"repeat across atoms", []term.Term{x, y},
			[]instance.Atom{instance.NewAtom("E", x, y), instance.NewAtom("E", y, x), instance.NewAtom("E", x, x)}, true},
		{"repeat and constant", []term.Term{x},
			[]instance.Atom{instance.NewAtom("E", x, a), instance.NewAtom("E", a, x)}, true},
		{"absent constant", []term.Term{x}, []instance.Atom{instance.NewAtom("E", x, term.Const("nope"))}, false},
		{"boolean", nil, []instance.Atom{instance.NewAtom("E", x, y), instance.NewAtom("E", y, z), instance.NewAtom("P", z)}, true},
		{"boolean ground", nil, []instance.Atom{instance.NewAtom("E", b, c)}, true},
		{"boolean ground miss", nil, []instance.Atom{instance.NewAtom("E", c, b)}, false},
		{"boolean no answer", nil, []instance.Atom{instance.NewAtom("P", x), instance.NewAtom("E", x, x)}, false},
		{"0-ary present", []term.Term{x}, []instance.Atom{instance.NewAtom("P", x), instance.NewAtom("Z")}, true},
		{"0-ary absent", []term.Term{x}, []instance.Atom{instance.NewAtom("P", x), instance.NewAtom("W")}, false},
		{"0-ary only", nil, []instance.Atom{instance.NewAtom("Z")}, true},
		{"arity mismatch", []term.Term{x}, []instance.Atom{instance.NewAtom("P", x, y)}, false},
		{"arity mismatch elsewhere", []term.Term{x},
			[]instance.Atom{instance.NewAtom("E", x, y), instance.NewAtom("E", x, y, z)}, false},
		{"null answers", []term.Term{x, y}, []instance.Atom{instance.NewAtom("E", x, y), instance.NewAtom("P", y)}, true},
		{"existential tail", []term.Term{x},
			[]instance.Atom{instance.NewAtom("E", x, y), instance.NewAtom("E", y, z), instance.NewAtom("E", z, x)}, true},
	}
	for _, tc := range cases {
		q := &cq.CQ{Name: "q", Free: tc.free, Atoms: tc.atoms}
		if got := checkAgainstReference(t, tc.name, q, db); got != tc.nonEmpty {
			t.Fatalf("%s: nonempty = %v, want %v", tc.name, got, tc.nonEmpty)
		}
	}
}

// TestInternedCandidatesConcurrent: 1, 4 and 8 goroutines evaluating
// over one shared interned view get identical answers; the race
// detector checks the view (including its lazily sorted rows) is safe
// for concurrent readers.
func TestInternedCandidatesConcurrent(t *testing.T) {
	mk := func() *instance.Instance { return gen.RandomGraphDB(rand.New(rand.NewSource(41)), 300, 12) }
	q := cq.MustParse("q(x,y) :- E(x,y), E(y,z), E(z,x).")
	want := mapPathEvaluate(q, mk())
	for _, workers := range []int{1, 4, 8} {
		db := mk() // a fresh view, so the workers race to build its sorted rows
		got := make([][][]term.Term, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = Evaluate(q, db)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if !eqAnswers(got[w], want) {
				t.Fatalf("workers=%d worker %d: answers diverge", workers, w)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no triangles; the test would compare empty sets")
	}
}

// TestProgramCancelBounded: with the cancel channel already closed, a
// fruitless search over a dense graph stops at the first poll instead
// of exhausting its candidates.
func TestProgramCancelBounded(t *testing.T) {
	db := denseGraph(40)
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,w), E(w,v), Stop(v).")
	if err := db.Add(instance.NewAtom("Stop", term.Const("outside"))); err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	p := Compile(q)
	e := p.newExec(db.Interned(), cancel)
	if e == nil {
		t.Fatal("view rejected the query at setup; the search never ran")
	}
	e.run()
	if !e.cancelled {
		t.Fatal("search was not cancelled")
	}
	if e.cands > cancelEvery {
		t.Fatalf("examined %d candidates after cancellation, want at most %d", e.cands, cancelEvery)
	}
	if _, err := p.Execute(db.Interned(), cancel); err != ErrCancelled {
		t.Fatalf("Execute error = %v, want ErrCancelled", err)
	}
}

// denseGraph is the complete directed graph on n nodes.
func denseGraph(n int) *instance.Instance {
	db := instance.New()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			db.Add(instance.NewAtom("E", term.Const(fmt.Sprintf("v%d", i)), term.Const(fmt.Sprintf("v%d", j))))
		}
	}
	return db
}

// TestCanonicalizeMatchesMapAndString: Canonicalize orders and dedupes
// exactly as the map-and-string implementation it replaced, including
// duplicate tuples and names containing NUL bytes (whose keys can
// collide across different tuples; the first tuple wins either way).
func TestCanonicalizeMatchesMapAndString(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	names := []string{"a", "b", "a\x00", "\x00", "a\x00\x01b", "", "bb", "ab"}
	kinds := []term.Kind{term.Constant, term.Null}
	for trial := 0; trial < 300; trial++ {
		w := r.Intn(4)
		ans := make([][]term.Term, r.Intn(40))
		for i := range ans {
			if i > 0 && r.Intn(4) == 0 {
				ans[i] = ans[r.Intn(i)] // exact duplicate
				continue
			}
			tup := make([]term.Term, w)
			for j := range tup {
				tup[j] = term.Term{K: kinds[r.Intn(len(kinds))], Name: names[r.Intn(len(names))]}
			}
			ans[i] = tup
		}
		want := mapAndStringCanonicalize(ans)
		got := Canonicalize(ans)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d tuples, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) || (len(got[i]) > 0 && &got[i][0] != &want[i][0]) {
				t.Fatalf("trial %d: tuple %d is %q, want %q", trial, i, got[i], want[i])
			}
		}
		// Canonical input takes the sorted fast path and comes back as is.
		if again := Canonicalize(want); len(again) != len(want) || (len(want) > 0 && &again[0] != &want[0]) {
			t.Fatalf("trial %d: canonical input was not returned unchanged", trial)
		}
	}
}

// mapAndStringCanonicalize is the previous canonicalization: a string
// key per tuple, a map for first-wins dedup, a sort on the keys.
func mapAndStringCanonicalize(ans [][]term.Term) [][]term.Term {
	if len(ans) <= 1 {
		return ans
	}
	type keyed struct {
		key   string
		tuple []term.Term
	}
	keyedAns := make([]keyed, 0, len(ans))
	seen := make(map[string]bool, len(ans))
	var buf []byte
	for _, t := range ans {
		buf = AppendTupleKey(buf[:0], t)
		if !seen[string(buf)] {
			k := string(buf)
			seen[k] = true
			keyedAns = append(keyedAns, keyed{key: k, tuple: t})
		}
	}
	sort.Slice(keyedAns, func(i, j int) bool { return keyedAns[i].key < keyedAns[j].key })
	out := make([][]term.Term, len(keyedAns))
	for i, a := range keyedAns {
		out[i] = a.tuple
	}
	return out
}
