package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// This file holds the known-answer checks. None of them calls the code
// under test: queries are read by a small parser of their own, the
// acyclicity test is a separate GYO reduction, and reference answers
// come from a backtracking join over the benchmark's own copy of each
// instance.

// term is a query argument: a variable or a quoted constant.
type term struct {
	name  string
	konst bool
}

// ratom is a parsed query atom.
type ratom struct {
	pred string
	args []term
}

// rquery is a parsed rule-syntax query.
type rquery struct {
	free  []string
	atoms []ratom
}

// parseRule reads "q(x,y) :- R(x,'c'), S(y)." — the subset of the
// repository's rule syntax that the benchmark sends and the server
// returns as witnesses. Quoted names and bare numbers are constants.
func parseRule(s string) (rquery, error) {
	var q rquery
	head, body, ok := strings.Cut(s, ":-")
	if !ok {
		return q, fmt.Errorf("no ':-' in %q", s)
	}
	head = strings.TrimSpace(head)
	if i := strings.IndexByte(head, '('); i >= 0 {
		for _, a := range splitArgs(strings.TrimSuffix(head[i+1:], ")")) {
			q.free = append(q.free, a)
		}
	}
	body = strings.TrimSuffix(strings.TrimSpace(body), ".")
	for len(strings.TrimSpace(body)) > 0 {
		body = strings.TrimLeft(body, " ,")
		open := strings.IndexByte(body, '(')
		end := strings.IndexByte(body, ')')
		if open < 0 || end < open {
			return q, fmt.Errorf("malformed atom in %q", s)
		}
		a := ratom{pred: strings.TrimSpace(body[:open])}
		for _, x := range splitArgs(body[open+1 : end]) {
			switch {
			case strings.HasPrefix(x, "'"):
				a.args = append(a.args, term{strings.Trim(x, "'"), true})
			case x != "" && x[0] >= '0' && x[0] <= '9':
				a.args = append(a.args, term{x, true})
			default:
				a.args = append(a.args, term{x, false})
			}
		}
		q.atoms = append(q.atoms, a)
		body = body[end+1:]
	}
	if len(q.atoms) == 0 {
		return q, fmt.Errorf("empty body in %q", s)
	}
	return q, nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// gyoAcyclic decides α-acyclicity of the query's hypergraph (vertices:
// variables; edges: atoms) by GYO reduction: repeatedly delete a vertex
// that lies in one edge only and an edge contained in another edge. The
// hypergraph is acyclic iff this leaves at most one edge.
func gyoAcyclic(atoms []ratom) bool {
	var edges []map[string]bool
	for _, a := range atoms {
		e := map[string]bool{}
		for _, t := range a.args {
			if !t.konst {
				e[t.name] = true
			}
		}
		edges = append(edges, e)
	}
	for changed := true; changed; {
		changed = false
		count := map[string]int{}
		for _, e := range edges {
			for v := range e {
				count[v]++
			}
		}
		for _, e := range edges {
			for v := range e {
				if count[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		for i := 0; i < len(edges); i++ {
			for j := range edges {
				if i != j && subset(edges[i], edges[j]) {
					edges = append(edges[:i], edges[i+1:]...)
					i--
					changed = true
					break
				}
			}
		}
	}
	return len(edges) <= 1
}

func subset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// decideBody is the part of a /decide answer the checks read.
type decideBody struct {
	Verdict string `json:"verdict"`
	Witness string `json:"witness"`
}

// checkDecision checks one decision against the item's known shape: a
// yes-family item must come back "yes" with a witness that passes the
// GYO test and keeps the query's head arity; a not-yes item must not
// come back "yes".
func checkDecision(it decideItem, d decideBody) error {
	switch d.Verdict {
	case "yes", "no", "unknown":
	default:
		return fmt.Errorf("verdict %q", d.Verdict)
	}
	if it.want == wantNotYes {
		if d.Verdict == "yes" {
			return fmt.Errorf("%s item decided yes (witness %q): %s under %s", it.family, d.Witness, it.query, it.deps)
		}
		return nil
	}
	if d.Verdict != "yes" {
		return fmt.Errorf("%s item decided %s, want yes: %s under %s", it.family, d.Verdict, it.query, it.deps)
	}
	w, err := parseRule(d.Witness)
	if err != nil {
		return fmt.Errorf("witness: %v", err)
	}
	if !gyoAcyclic(w.atoms) {
		return fmt.Errorf("witness %q fails the GYO test", d.Witness)
	}
	q, err := parseRule(it.query)
	if err != nil {
		return err
	}
	if len(w.free) != len(q.free) {
		return fmt.Errorf("witness %q has %d head variables, query %d", d.Witness, len(w.free), len(q.free))
	}
	return nil
}

// ---- Reference evaluation ---------------------------------------

// refRel is one relation of the reference copy, indexed per position.
type refRel struct {
	rows [][]string
	idx  []map[string][]int32
	has  map[string]bool
}

// refDB is the benchmark's own copy of an instance.
type refDB map[string]*refRel

func newRefDB(fs []fact) refDB {
	db := refDB{}
	for _, f := range fs {
		db.add(f)
	}
	return db
}

func (db refDB) add(f fact) {
	r := db[f.pred]
	if r == nil {
		r = &refRel{idx: make([]map[string][]int32, len(f.args)), has: map[string]bool{}}
		for i := range r.idx {
			r.idx[i] = map[string][]int32{}
		}
		db[f.pred] = r
	}
	k := strings.Join(f.args, "\x00")
	if r.has[k] {
		return
	}
	r.has[k] = true
	for i, a := range f.args {
		r.idx[i][a] = append(r.idx[i][a], int32(len(r.rows)))
	}
	r.rows = append(r.rows, f.args)
}

// refEval evaluates q over the union of the layers (disjoint fact sets)
// by backtracking: atoms are joined most-bound first, each through the
// index of a bound position or a full-tuple membership test. It returns
// the distinct answer tuples in sorted order.
func refEval(q rquery, layers ...refDB) ([][]string, error) {
	for _, v := range q.free {
		found := false
		for _, a := range q.atoms {
			for _, t := range a.args {
				found = found || !t.konst && t.name == v
			}
		}
		if !found {
			return nil, fmt.Errorf("head variable %s not in body", v)
		}
	}
	binding := map[string]string{}
	done := make([]bool, len(q.atoms))
	seen := map[string]bool{}
	var out [][]string
	size := func(p string) int {
		n := 0
		for _, l := range layers {
			if r := l[p]; r != nil {
				n += len(r.rows)
			}
		}
		return n
	}
	bound := func(a ratom) int {
		n := 0
		for _, t := range a.args {
			if _, ok := binding[t.name]; t.konst || ok {
				n++
			}
		}
		return n
	}
	value := func(t term) (string, bool) {
		if t.konst {
			return t.name, true
		}
		v, ok := binding[t.name]
		return v, ok
	}
	var rec func(left int)
	rec = func(left int) {
		if left == 0 {
			tup := make([]string, len(q.free))
			for i, v := range q.free {
				tup[i] = binding[v]
			}
			if k := strings.Join(tup, "\x00"); !seen[k] {
				seen[k] = true
				out = append(out, tup)
			}
			return
		}
		best := -1
		for i, a := range q.atoms {
			if done[i] {
				continue
			}
			if best < 0 || bound(a) > bound(q.atoms[best]) ||
				bound(a) == bound(q.atoms[best]) && size(a.pred) < size(q.atoms[best].pred) {
				best = i
			}
		}
		a := q.atoms[best]
		done[best] = true
		defer func() { done[best] = false }()
		vals := make([]string, len(a.args))
		full, pos := true, -1
		for i, t := range a.args {
			v, ok := value(t)
			vals[i] = v
			if ok && pos < 0 {
				pos = i
			}
			full = full && ok
		}
		try := func(row []string) {
			var added []string
			ok := true
			for i, t := range a.args {
				v, isBound := value(t)
				if isBound {
					if v != row[i] {
						ok = false
						break
					}
					continue
				}
				binding[t.name] = row[i]
				added = append(added, t.name)
			}
			if ok {
				rec(left - 1)
			}
			for _, v := range added {
				delete(binding, v)
			}
		}
		for _, l := range layers {
			r := l[a.pred]
			if r == nil || len(r.idx) != len(a.args) {
				continue
			}
			switch {
			case full:
				if r.has[strings.Join(vals, "\x00")] {
					rec(left - 1)
				}
			case pos >= 0:
				for _, i := range r.idx[pos][vals[pos]] {
					try(r.rows[i])
				}
			default:
				for _, row := range r.rows {
					try(row)
				}
			}
		}
	}
	rec(len(q.atoms))
	sortTuples(out)
	return out, nil
}

func sortTuples(ts [][]string) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// errWrongAnswers reports an answer set that differs from the reference.
var errWrongAnswers = errors.New("answers differ from the reference")

// sameAnswers compares a server answer set with the sorted reference,
// ignoring the server's order. It sorts got in place.
func sameAnswers(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d answers, want %d", errWrongAnswers, len(got), len(want))
	}
	sortTuples(got)
	for i := range got {
		if strings.Join(got[i], "\x00") != strings.Join(want[i], "\x00") {
			return fmt.Errorf("%w: answer %d is %v, want %v", errWrongAnswers, i, got[i], want[i])
		}
	}
	return nil
}
