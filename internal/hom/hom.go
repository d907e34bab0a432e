// Package hom implements homomorphisms between conjunctive queries and
// instances: the backtracking search underlying CQ evaluation (the
// NP-complete general case, Chandra–Merlin), plain CQ containment and
// equivalence (no constraints), and core computation (CQ minimization).
package hom

import (
	"bytes"
	"sort"
	"strings"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// orderAtoms returns the pattern atoms in a connected, selectivity-
// friendly order: start from the atom with the most constants/bound
// terms, then repeatedly pick the atom sharing the most already-seen
// variables. A good static order keeps the backtracking search shallow.
func orderAtoms(atoms []instance.Atom, bound term.Subst) []instance.Atom {
	n := len(atoms)
	used := make([]bool, n)
	seen := make(map[term.Term]bool, len(bound))
	//semalint:allow detmap(set union into seen; insertion order cannot escape)
	for t := range bound {
		seen[t] = true
	}
	score := func(a instance.Atom) int {
		s := 0
		for _, t := range a.Args {
			if t.IsConst() || seen[t] {
				s += 2
			}
		}
		return s
	}
	out := make([]instance.Atom, 0, n)
	//semalint:allow cancelpoll(selects one unused atom per pass; exactly n iterations)
	for len(out) < n {
		best, bestScore := -1, -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			if s := score(a); s > bestScore {
				best, bestScore = i, s
			}
		}
		used[best] = true
		out = append(out, atoms[best])
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				seen[t] = true
			}
		}
	}
	return out
}

// candidates returns the target atoms that could match pattern a under
// the current substitution, using the most selective available index.
func candidates(target *instance.Instance, a instance.Atom, sub term.Subst) []instance.Atom {
	best := target.ByPred(a.Pred)
	for i, t := range a.Args {
		img := sub.Apply(t)
		if img.IsVar() {
			continue // still unbound
		}
		if img.IsNull() {
			if _, bound := sub[t]; !bound {
				continue // free pattern null: bindable, not a fixed value
			}
		}
		if list := target.ByPos(a.Pred, i, img); len(list) < len(best) {
			best = list
		}
	}
	return best
}

// Enumerate calls yield for every homomorphism from the pattern atoms
// into target that extends init (init itself is never mutated). The
// pattern may mention variables, constants and nulls; variables and
// nulls are bindable, constants are rigid. Enumeration stops early when
// yield returns false. The substitution passed to yield is reused
// across calls; yield must copy it (term.Subst.Clone) to retain it.
func Enumerate(pattern []instance.Atom, target *instance.Instance, init term.Subst, yield func(term.Subst) bool) {
	sub := init.Clone()
	if sub == nil {
		sub = term.NewSubst()
	}
	ordered := orderAtoms(pattern, sub)
	// Backtracks are counted in a local and flushed to the process-
	// global counter once per enumeration: the hot loop pays a plain
	// increment, the observability layer two atomic adds per call.
	var backtracks int64
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(ordered) {
			return yield(sub)
		}
		a := ordered[i]
		for _, cand := range candidates(target, a, sub) {
			added, ok := term.MatchTuple(sub, a.Args, cand.Args)
			if !ok {
				backtracks++
				continue
			}
			cont := rec(i + 1)
			term.Unbind(sub, added)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	obs.HomEnumerations.Add(1)
	if backtracks > 0 {
		obs.HomBacktracks.Add(backtracks)
	}
}

// Find returns one homomorphism extending init, or nil/false.
func Find(pattern []instance.Atom, target *instance.Instance, init term.Subst) (term.Subst, bool) {
	var out term.Subst
	Enumerate(pattern, target, init, func(s term.Subst) bool {
		out = s.Clone()
		return false
	})
	return out, out != nil
}

// Exists reports whether any homomorphism extends init.
func Exists(pattern []instance.Atom, target *instance.Instance, init term.Subst) bool {
	_, ok := Find(pattern, target, init)
	return ok
}

// Evaluate computes q(I): the set of answer tuples, each a tuple over
// the terms of I, deduplicated, in canonical order. It compiles q and
// runs the Program over I's interned view (built on first use and
// cached on the instance until the next mutation).
func Evaluate(q *cq.CQ, target *instance.Instance) [][]term.Term {
	ans, _ := Compile(q).Execute(target.Interned(), nil) // no cancel channel: cannot fail
	return Canonicalize(ans)
}

// Canonicalize sorts an answer set by the canonical tuple key
// (AppendTupleKey) and drops duplicate keys, keeping each key's first
// tuple, so every evaluator returns byte-identical lists for equal
// answer sets. All keys go into one pre-sized buffer and an index is
// sorted over their offsets: no map and no string per tuple. Input
// already in strictly increasing key order (the Yannakakis evaluator's
// output) is returned as is, without the index or a new slice.
func Canonicalize(ans [][]term.Term) [][]term.Term {
	if len(ans) <= 1 {
		return ans
	}
	n := 0
	for _, t := range ans {
		for _, x := range t {
			n += len(x.Name) + 2
		}
	}
	buf := make([]byte, 0, n)
	off := make([]int32, len(ans)+1) // key i is buf[off[i]:off[i+1]]
	key := func(i int32) []byte { return buf[off[i]:off[i+1]] }
	sorted := true
	for i, t := range ans {
		buf = AppendTupleKey(buf, t)
		off[i+1] = int32(len(buf))
		if sorted && i > 0 && bytes.Compare(key(int32(i-1)), key(int32(i))) >= 0 {
			sorted = false
		}
	}
	if sorted {
		return ans
	}
	idx := make([]int32, len(ans))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if c := bytes.Compare(key(idx[a]), key(idx[b])); c != 0 {
			return c < 0
		}
		return idx[a] < idx[b] // equal keys: the first tuple leads
	})
	out := make([][]term.Term, 0, len(ans))
	for k, i := range idx {
		if k > 0 && bytes.Equal(key(i), key(idx[k-1])) {
			continue
		}
		out = append(out, ans[i])
	}
	return out
}

// AppendTupleKey appends a canonical byte key for the tuple to buf and
// returns the extended slice: two tuples have equal keys iff they are
// equal termwise. Callers reuse one buffer across tuples to keep key
// construction allocation-free.
func AppendTupleKey(buf []byte, ts []term.Term) []byte {
	for _, t := range ts {
		buf = t.AppendKey(buf)
	}
	return buf
}

// tupleKey materializes a tuple key as a string in one exact-sized
// allocation.
func tupleKey(ts []term.Term) string {
	n := 0
	for _, t := range ts {
		n += len(t.Name) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for _, t := range ts {
		b.WriteByte(byte(t.K))
		b.WriteString(t.Name)
		b.WriteByte(0)
	}
	return b.String()
}

// EvaluateBool reports whether the Boolean query holds (for non-Boolean
// queries: whether the answer set is nonempty).
func EvaluateBool(q *cq.CQ, target *instance.Instance) bool {
	// As a Boolean query the search stops at the first homomorphism.
	boolean := &cq.CQ{Name: q.Name, Atoms: q.Atoms}
	ans, _ := Compile(boolean).Execute(target.Interned(), nil) // no cancel channel: cannot fail
	return len(ans) > 0
}

// HasTuple reports whether tuple ∈ q(I).
func HasTuple(q *cq.CQ, target *instance.Instance, tuple []term.Term) bool {
	if len(tuple) != len(q.Free) {
		return false
	}
	init := term.NewSubst()
	for i, x := range q.Free {
		if prev, ok := init[x]; ok && prev != tuple[i] {
			return false
		}
		init[x] = tuple[i]
	}
	return Exists(q.Atoms, target, init)
}

// Contained decides plain containment q ⊆ q' (over all instances, no
// constraints) by the Chandra–Merlin criterion: freeze q and test
// whether the frozen head tuple is an answer of q' over D_q.
func Contained(q, qp *cq.CQ) bool {
	if len(q.Free) != len(qp.Free) {
		return false
	}
	db, frozen := q.Freeze()
	return HasTuple(qp, db, frozen)
}

// Equivalent decides plain equivalence q ≡ q'.
func Equivalent(q, qp *cq.CQ) bool {
	return Contained(q, qp) && Contained(qp, q)
}
