package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// This file generates every benchmark input from the workload seed.
// Queries and constraint sets are produced as text in the repository's
// syntax, so the server receives exactly what a client would send. Each
// decision family carries the verdict shape it is built to have; the
// known-answer checks in oracle.go rest on these constructions.

// fact is one ground atom of a generated instance.
type fact struct {
	pred string
	args []string
}

func (f fact) String() string { return f.pred + "(" + strings.Join(f.args, ",") + ")" }

// renderFacts writes facts in the instance syntax ("R(a,b). S(c).").
func renderFacts(fs []fact) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString(". ")
	}
	return b.String()
}

// Verdict shapes a decision family claims.
const (
	wantYes    = "yes"     // an acyclic witness must be returned
	wantNotYes = "not-yes" // "no" or "unknown"; a "yes" is wrong
)

// Decision families.
const (
	famAcyclic = "acyclic" // acyclic q under a random Σ: yes
	famDerived = "derived" // acyclic q′ plus atoms one chase round of Σ derives from q′: yes
	famCyclic  = "cyclic"  // cyclic core under a Σ whose bodies name a predicate absent from q: not yes
)

// decideItem is one /decide request with its known answer shape.
type decideItem struct {
	family string
	class  string // the constraint class the set was drawn from
	query  string
	deps   string
	budget int
	want   string
}

// Budgets per family. The acyclic family settles at the first layer
// and never spends budget; the derived family needs a few candidates of
// the quotient layer; the cyclic family always runs to its budget, so
// its budget sets the cost of the decision layers.
const (
	budgetAcyclic = 40
	budgetDerived = 400
	budgetCyclic  = 30
)

// sigClass is a constraint class with the signature its sets use.
type sigClass struct {
	name  string
	preds map[string]int // predicate → arity
	gen   func(r *rand.Rand) string
}

func binaryPreds(prefix string, n int) map[string]int {
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("%s%d", prefix, i)] = 2
	}
	return m
}

// sigmaClasses lists one generator per constraint class the decider
// distinguishes: linear inclusion dependencies, guarded, non-recursive,
// sticky, keys (egds) and full tgds.
func sigmaClasses() []sigClass {
	guarded := binaryPreds("E", 2)
	guarded["G0"], guarded["G1"] = 3, 3
	sticky := binaryPreds("S", 3)
	sticky["U0"], sticky["U1"] = 1, 1
	return []sigClass{
		{"inclusion", binaryPreds("E", 3), genInclusion},
		{"guarded", guarded, genGuarded},
		{"nonrecursive", binaryPreds("L", 4), genNonRecursive},
		{"sticky", sticky, genSticky},
		{"keys", binaryPreds("E", 3), genKeys},
		{"full", binaryPreds("E", 3), genFull},
	}
}

func pick(r *rand.Rand, prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, r.Intn(n)) }

func genInclusion(r *rand.Rand) string {
	var lines []string
	for i, n := 0, 2+r.Intn(2); i < n; i++ {
		from, to := pick(r, "E", 3), pick(r, "E", 3)
		switch r.Intn(3) {
		case 0:
			lines = append(lines, fmt.Sprintf("%s(x,y) -> %s(y,z).", from, to))
		case 1:
			lines = append(lines, fmt.Sprintf("%s(x,y) -> %s(x,y).", from, to))
		default:
			lines = append(lines, fmt.Sprintf("%s(x,y) -> %s(y,x).", from, to))
		}
	}
	return strings.Join(lines, "\n")
}

func genGuarded(r *rand.Rand) string {
	var lines []string
	for i, n := 0, 2+r.Intn(2); i < n; i++ {
		g, e := pick(r, "G", 2), pick(r, "E", 2)
		if r.Intn(2) == 0 {
			lines = append(lines, fmt.Sprintf("%s(x,y,z), %s(x,y) -> %s(y,z).", g, e, pick(r, "E", 2)))
		} else {
			lines = append(lines, fmt.Sprintf("%s(x,y,z), %s(x,y) -> %s(x,z,w).", g, e, pick(r, "G", 2)))
		}
	}
	return strings.Join(lines, "\n")
}

func genNonRecursive(r *rand.Rand) string {
	var lines []string
	for i := 0; i < 3; i++ {
		lo, hi := fmt.Sprintf("L%d", i), fmt.Sprintf("L%d", i+1)
		body := lo + "(x,y)"
		if r.Intn(2) == 0 {
			body = lo + "(x,y), " + lo + "(y,z)"
		}
		head := hi + "(y,x)"
		if r.Intn(2) == 0 {
			head = hi + "(x,w)"
		}
		lines = append(lines, body+" -> "+head+".")
	}
	return strings.Join(lines, "\n")
}

// genSticky draws linear rules and product rules with no repeated body
// variable; such sets are sticky by the marking procedure because no
// variable joins in a body.
func genSticky(r *rand.Rand) string {
	var lines []string
	for i, n := 0, 2+r.Intn(2); i < n; i++ {
		if r.Intn(2) == 0 {
			lines = append(lines, fmt.Sprintf("%s(x,y) -> %s(y,w).", pick(r, "S", 3), pick(r, "S", 3)))
		} else {
			lines = append(lines, fmt.Sprintf("%s(x), %s(y) -> %s(x,y).", pick(r, "U", 2), pick(r, "U", 2), pick(r, "S", 3)))
		}
	}
	return strings.Join(lines, "\n")
}

func genKeys(r *rand.Rand) string {
	var lines []string
	for _, i := range r.Perm(3)[:1+r.Intn(2)] {
		lines = append(lines, fmt.Sprintf("E%d(x,y), E%d(x,z) -> y = z.", i, i))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// genFull draws Example 1-shaped full tgds: a two-atom path implies the
// closing edge, with the head predicate outside every body.
func genFull(r *rand.Rand) string {
	a, b := pick(r, "E", 2), pick(r, "E", 2)
	return fmt.Sprintf("%s(x,y), %s(y,z) -> E2(x,z).", a, b)
}

// catom is a query atom over variable names.
type catom struct {
	pred string
	args []string
}

// renderQuery writes a rule-syntax query with the given head variables.
func renderQuery(free []string, atoms []catom) string {
	var b strings.Builder
	b.WriteString("q")
	if len(free) > 0 {
		b.WriteString("(" + strings.Join(free, ",") + ")")
	}
	b.WriteString(" :- ")
	for i, a := range atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.pred + "(" + strings.Join(a.args, ",") + ")")
	}
	b.WriteString(".")
	return b.String()
}

// treeQuery grows an acyclic query of n atoms over the signature: every
// new atom shares exactly one variable with the atoms before it, so the
// atoms in order form a join tree.
func treeQuery(r *rand.Rand, n int, preds map[string]int) ([]string, []catom) {
	names := sortedPreds(preds)
	var vars []string
	fresh := func() string {
		v := fmt.Sprintf("v%d", len(vars))
		vars = append(vars, v)
		return v
	}
	var atoms []catom
	for i := 0; i < n; i++ {
		p := names[r.Intn(len(names))]
		args := make([]string, preds[p])
		shared := -1
		if i > 0 {
			shared = r.Intn(len(args))
			args[shared] = vars[r.Intn(len(vars))]
		}
		for j := range args {
			if j != shared {
				args[j] = fresh()
			}
		}
		atoms = append(atoms, catom{p, args})
	}
	var free []string
	for _, v := range vars {
		if len(free) < 2 && r.Intn(3) == 0 {
			free = append(free, v)
		}
	}
	return free, atoms
}

func sortedPreds(preds map[string]int) []string {
	names := make([]string, 0, len(preds))
	for p := range preds {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// genAcyclicItem: an acyclic query of n atoms under a random set of the
// class. An acyclic q is its own witness, so the verdict is yes under
// any Σ.
func genAcyclicItem(r *rand.Rand, c sigClass, n int) decideItem {
	free, atoms := treeQuery(r, n, c.preds)
	return decideItem{famAcyclic, c.name, renderQuery(free, atoms), c.gen(r), budgetAcyclic, wantYes}
}

// genDerivedItem: an acyclic q′ containing the path A(u,v), B(v,w), the
// set {A(x,y), B(y,z) -> C(x,z)}, and q = q′ plus every atom that one
// chase round of the set derives from q′. Since C is absent from q′ and
// from every body, q′'s chase is q′ plus exactly those atoms, so
// q ≡Σ q′ and q is semantically acyclic although the derived atoms
// close triangles.
func genDerivedItem(r *rand.Rand, extra int) decideItem {
	a, b := pick(r, "E", 2), pick(r, "E", 2)
	atoms := []catom{{a, []string{"v0", "v1"}}, {b, []string{"v1", "v2"}}}
	vars := []string{"v0", "v1", "v2"}
	for i := 0; i < extra; i++ {
		v := fmt.Sprintf("v%d", len(vars))
		old := vars[r.Intn(len(vars))]
		if r.Intn(2) == 0 {
			atoms = append(atoms, catom{pick(r, "E", 2), []string{old, v}})
		} else {
			atoms = append(atoms, catom{pick(r, "E", 2), []string{v, old}})
		}
		vars = append(vars, v)
	}
	derived := chaseRound(atoms, a, b, "E2")
	free := []string{"v0"}
	if r.Intn(2) == 0 {
		free = append(free, "v2")
	}
	q := renderQuery(free, append(append([]catom(nil), atoms...), derived...))
	sigma := fmt.Sprintf("%s(x,y), %s(y,z) -> E2(x,z).", a, b)
	return decideItem{famDerived, "full", q, sigma, budgetDerived, wantYes}
}

// chaseRound applies A(x,y), B(y,z) -> C(x,z) once to every trigger in
// atoms and returns the new atoms, without duplicates.
func chaseRound(atoms []catom, a, b, c string) []catom {
	seen := make(map[string]bool)
	for _, at := range atoms {
		seen[at.pred+"("+strings.Join(at.args, ",")+")"] = true
	}
	var out []catom
	for _, x := range atoms {
		if x.pred != a {
			continue
		}
		for _, y := range atoms {
			if y.pred != b || y.args[0] != x.args[1] {
				continue
			}
			d := catom{c, []string{x.args[0], y.args[1]}}
			k := d.pred + "(" + strings.Join(d.args, ",") + ")"
			if !seen[k] {
				seen[k] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// genCyclicItem: a directed cycle of 3 to 5 labelled edges, optionally
// with a pendant edge, under one of four Σ types, both chosen by combo. A directed cycle is a core: its
// proper subgraphs are paths, which hold no closed walk to fold it onto.
// The set's tgd and egd bodies all name Z, which q lacks, so no
// dependency ever fires on q or on any candidate over q's predicates;
// q ≡Σ q′ then means q ≡ q′, and the core is cyclic, so the answer is no
// (or unknown when the budget runs out) and never yes.
func genCyclicItem(r *rand.Rand, combo int) decideItem {
	shape := cyclicShapes[combo%len(cyclicShapes)]
	n := shape.length
	var atoms []catom
	for i := 0; i < n; i++ {
		atoms = append(atoms, catom{pick(r, "E", 3), []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i+1)%n)}})
	}
	if shape.pendant {
		atoms = append(atoms, catom{pick(r, "E", 3), []string{fmt.Sprintf("v%d", r.Intn(n)), "w"}})
	}
	var free []string
	if r.Intn(2) == 0 {
		free = []string{"v0"}
	}
	var sigma string
	switch combo / len(cyclicShapes) % 4 {
	case 0:
		sigma = fmt.Sprintf("Z(x,y), %s(y,z) -> %s(x,z).", pick(r, "E", 3), pick(r, "E", 3))
	case 1:
		sigma = fmt.Sprintf("Z(x,y,z), %s(x,y) -> %s(y,z).", pick(r, "E", 3), pick(r, "E", 3))
	case 2:
		sigma = fmt.Sprintf("Z(x,y) -> %s(y,w).", pick(r, "E", 3))
	default:
		sigma = fmt.Sprintf("Z(x,y), %s(x,z) -> y = z.", pick(r, "E", 3))
	}
	return decideItem{famCyclic, "absent-body", renderQuery(free, atoms), sigma, budgetCyclic, wantNotYes}
}

// cyclicShapes are the cycle lengths and pendant choices of the cyclic
// family (at most 5 atoms: 6-atom cyclic cores take seconds at any
// budget).
var cyclicShapes = []struct {
	length  int
	pendant bool
}{{3, false}, {3, true}, {4, false}, {4, true}, {5, false}}

// The decision mix is laid out in blocks of 50 items: 6 cyclic (12%),
// 5 derived (10%) and 39 acyclic. Within each family the structural
// choices (cycle shape and Σ type, derived size, constraint class and
// query size) rotate through a fixed schedule, and the seed draws only
// predicate labels, orientations and head variables. Every seed thus
// yields the same mix of decision costs, which keeps runs comparable.
const (
	mixBlock   = 50
	mixCyclic  = 6
	mixDerived = 5
)

// decidePool draws n items of the mix.
func decidePool(r *rand.Rand, n int) []decideItem {
	classes := sigmaClasses()
	out := make([]decideItem, n)
	for i := range out {
		block, slot := i/mixBlock, i%mixBlock
		switch {
		case slot < mixCyclic:
			out[i] = genCyclicItem(r, block*mixCyclic+slot)
		case slot < mixCyclic+mixDerived:
			out[i] = genDerivedItem(r, (block*mixDerived+slot)%2)
		default:
			k := block*(mixBlock-mixCyclic-mixDerived) + slot - mixCyclic - mixDerived
			out[i] = genAcyclicItem(r, classes[k%len(classes)], 2+k/len(classes)%4)
		}
	}
	return out
}

// prefixPreds renames every predicate of a query or set text by
// prepending tag. A common prefix keeps the relative order of predicate
// names, so the decision explores the same search in the same order,
// while the canonical key, the Σ rendering and hence every cache key
// are new. Predicates are the identifiers followed by '('.
func prefixPreds(text, tag string) string {
	var b strings.Builder
	b.Grow(len(text) + 8*len(tag))
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		ident := c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		if ident {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			word := text[start:i]
			if c == '(' && word != "q" {
				b.WriteString(tag)
			}
			b.WriteString(word)
			start = -1
		}
		b.WriteByte(c)
	}
	if start >= 0 {
		b.WriteString(text[start:])
	}
	return b.String()
}

// distinctItem returns the i-th item of a never-repeating stream built
// by cycling through the pool under a per-index predicate prefix.
func distinctItem(pool []decideItem, i int) decideItem {
	it := pool[i%len(pool)]
	tag := fmt.Sprintf("o%d", i)
	it.query = prefixPreds(it.query, tag)
	it.deps = prefixPreds(it.deps, tag)
	return it
}

// ---- Instances and evaluation pools -------------------------------

// example1Sigma is the paper's Example 1 constraint.
const example1Sigma = "Interest(x,z), Class(y,z) -> Owns(x,y)."

// example1Facts synthesizes a music-store instance closed under
// example1Sigma: every customer owns every record classified with a
// style they are interested in. Degrees are regular: each customer is
// interested in 3 styles, each record has 1 style, and with counts that
// are multiples of the style count every style has the same number of
// customers and records. The seed permutes which customer and record
// gets which styles, so every seed gives an isomorphic instance, and
// answer sizes per template do not depend on the seed or the anchor.
func example1Facts(r *rand.Rand, customers, records, styles int) []fact {
	style := r.Perm(styles)
	var fs []fact
	recordsOf := make([][]int, styles)
	for j, rec := range r.Perm(records) {
		s := style[j%styles]
		recordsOf[s] = append(recordsOf[s], rec)
		fs = append(fs, fact{"Class", []string{fmt.Sprintf("r%d", rec), fmt.Sprintf("s%d", s)}})
	}
	for j, cust := range r.Perm(customers) {
		c := fmt.Sprintf("c%d", cust)
		for _, off := range []int{0, styles / 3, 2 * styles / 3} {
			s := style[(j+off)%styles]
			fs = append(fs, fact{"Interest", []string{c, fmt.Sprintf("s%d", s)}})
			for _, rec := range recordsOf[s] {
				fs = append(fs, fact{"Owns", []string{c, fmt.Sprintf("r%d", rec)}})
			}
		}
	}
	return fs
}

// evalQuery is one /evaluate request of a pool.
type evalQuery struct {
	kind  string // template family, for the doc and the tests
	query string
	deps  string
}

// Example 1 instance dimensions: 2000 customers × 3 styles × 25 records
// per style gives 150k Owns atoms; about 157k atoms and 2.6 MB of text.
const (
	ex1Customers = 2000
	ex1Records   = 1000
	ex1Styles    = 40
)

// example1Pool draws the evaluate-hot query pool. Constants are quoted
// (an unquoted name would parse as a variable). Templates repeat in
// blocks of 20 (8, 6, 3, 3), so every pool has the same template mix,
// and the median read falls inside the record-anchored class rather
// than on the boundary between two classes:
//
//   - selective, customer-anchored Example 1 (yannakakis, 75 answers);
//   - selective, record-anchored Example 1 (yannakakis, 150 answers);
//   - the Example 1 triangle restricted to one style: cyclic but
//     semantically acyclic under Σ, so the plan evaluates the acyclic
//     witness (yannakakis, 3750 answers);
//   - the same triangle sent with deps "": the decision says no and
//     auto picks generic homomorphism search over the cyclic query.
//
// The instance satisfies Σ, so every template has the same answers with
// and without Σ, which is what lets one reference serve both paths.
func example1Pool(r *rand.Rand, n, customers, records, styles int) []evalQuery {
	out := make([]evalQuery, 0, n)
	for i := 0; len(out) < n; i++ {
		c := fmt.Sprintf("'c%d'", r.Intn(customers))
		rec := fmt.Sprintf("'r%d'", r.Intn(records))
		s := fmt.Sprintf("'s%d'", r.Intn(styles))
		triangle := fmt.Sprintf("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y), Class(y,%s).", s)
		switch slot := i % 20; {
		case slot < 8:
			out = append(out, evalQuery{"customer", fmt.Sprintf("q(y) :- Interest(%s,z), Class(y,z), Owns(%s,y).", c, c), example1Sigma})
		case slot < 14:
			out = append(out, evalQuery{"record", fmt.Sprintf("q(x) :- Interest(x,z), Class(%s,z), Owns(x,%s).", rec, rec), example1Sigma})
		case slot < 17:
			out = append(out, evalQuery{"style-triangle", triangle, example1Sigma})
		default:
			out = append(out, evalQuery{"generic", triangle, ""})
		}
	}
	return out
}

// Graph instance dimensions for patch-evaluate: 20000 nodes of
// out-degree 4 and 15000 P facts, 95k atoms.
const (
	graphNodes     = 20000
	graphOutDegree = 4
	graphUnary     = 15000
)

func node(i int) string { return fmt.Sprintf("n%d", i) }

// graphFacts draws a random directed graph E in which every node has
// the same out-degree, and a unary P on a random subset of nodes.
func graphFacts(r *rand.Rand, nodes, outDegree, unary int) []fact {
	var fs []fact
	for i := 0; i < nodes; i++ {
		seen := map[int]bool{}
		for len(seen) < outDegree {
			j := r.Intn(nodes)
			if !seen[j] {
				seen[j] = true
				fs = append(fs, fact{"E", []string{node(i), node(j)}})
			}
		}
	}
	for _, i := range r.Perm(nodes)[:unary] {
		fs = append(fs, fact{"P", []string{node(i)}})
	}
	return fs
}

// graphPool draws acyclic anchored queries over the graph (Σ = ∅), the
// four templates in rotation.
func graphPool(r *rand.Rand, n, nodes int) []evalQuery {
	out := make([]evalQuery, 0, n)
	for i := 0; len(out) < n; i++ {
		a := fmt.Sprintf("'%s'", node(r.Intn(nodes)))
		switch i % 4 {
		case 0:
			out = append(out, evalQuery{"two-hop", fmt.Sprintf("q(y) :- E(%s,x), E(x,y).", a), ""})
		case 1:
			out = append(out, evalQuery{"two-hop-p", fmt.Sprintf("q(x,y) :- E(%s,x), E(x,y), P(y).", a), ""})
		case 2:
			out = append(out, evalQuery{"in-out", fmt.Sprintf("q(x,y) :- E(x,%s), E(x,y).", a), ""})
		default:
			out = append(out, evalQuery{"three-hop", fmt.Sprintf("q(z) :- E(%s,x), E(x,y), E(y,z), P(x).", a), ""})
		}
	}
	return out
}

// deltaSize is the number of atoms per PATCH: about 0.5% of the graph.
const deltaSize = 500

// graphDeltas draws m insert sets of size fresh E and P atoms absent
// from the base graph and from each other. PATCH k inserts set (k-1)/2
// when k is odd and deletes it again when k is even, so the instance
// alternates between the base graph and base plus one set, and every
// state has a reference answer computed in setup. A third of each set
// leaves a pool anchor, so deltas reach the queries.
func graphDeltas(r *rand.Rand, base []fact, pool []evalQuery, m, nodes, size int) [][]fact {
	seen := make(map[string]bool, len(base))
	for _, f := range base {
		seen[f.String()] = true
	}
	var anchors []string
	for _, q := range pool {
		i := strings.IndexByte(q.query, '\'')
		j := strings.IndexByte(q.query[i+1:], '\'')
		anchors = append(anchors, q.query[i+1:i+1+j])
	}
	out := make([][]fact, m)
	for k := range out {
		for len(out[k]) < size {
			var f fact
			switch {
			case r.Intn(3) == 0:
				f = fact{"E", []string{anchors[r.Intn(len(anchors))], node(r.Intn(nodes))}}
			case r.Intn(8) == 0:
				f = fact{"P", []string{node(r.Intn(nodes))}}
			default:
				f = fact{"E", []string{node(r.Intn(nodes)), node(r.Intn(nodes))}}
			}
			if key := f.String(); !seen[key] {
				seen[key] = true
				out[k] = append(out[k], f)
			}
		}
	}
	return out
}
