// Interned hot-path trajectory: `experiments -intern-out BENCH_5.json`
// measures the integer-coded evaluator against the retained string-path
// oracle and persists the JSON trajectory. Four arm families:
//
//   - eval: compiled interned Yannakakis (Compile once, Execute per
//     database) against EvaluateWithForestOracleOpt on the BENCH_4
//     indexed star workload at two scales, a free-variable path-3 and a
//     Boolean path-6 over random graphs. Answers and deterministic
//     stats fingerprints are checked identical.
//   - generic: hom.Evaluate, which runs the compiled hom.Program over
//     the interned view, against backtracking through hom.Enumerate on
//     the ByPred/ByPos map path. Answers are checked identical.
//   - micro probes: the steady-state semijoin membership probe
//     (string-key map vs merge-join over sorted ids) and the index
//     probe (ByPos map vs columnar Range); the interned sides must
//     report 0 allocs/op.
//
// The tool fails (exit 1) if the geomean speedup of the interned arms
// is below 2x, any interned micro probe allocates, or any arm's answers
// or stats diverge from the oracle.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// internArm is one baseline-vs-interned comparison.
type internArm struct {
	Name    string `json:"name"`
	Answers int    `json:"answers"`
	// BaselineNsOp / InternedNsOp are testing.Benchmark ns/op for the
	// string path and the interned path.
	BaselineNsOp int64 `json:"baseline_ns_op"`
	InternedNsOp int64 `json:"interned_ns_op"`
	// *AllocsOp are allocations per op under each path.
	BaselineAllocsOp int64   `json:"baseline_allocs_op"`
	InternedAllocsOp int64   `json:"interned_allocs_op"`
	Speedup          float64 `json:"speedup"`
	// Agree: both paths produced identical results.
	Agree bool `json:"agree"`
	// FingerprintMatch: deterministic EvalStats fingerprints identical
	// (eval arms; vacuously true elsewhere).
	FingerprintMatch bool `json:"fingerprint_match"`
	// Probe marks the steady-state micro probes bound by the 0 allocs/op
	// acceptance criterion.
	Probe bool `json:"probe"`
}

type internReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	// Eval are the end-to-end evaluation arms (compiled interned vs
	// string oracle); the ≥2x geomean acceptance claim is over these.
	Eval []internArm `json:"eval"`
	// Generic compares the compiled hom.Program with map-path
	// backtracking; excluded from the geomean.
	Generic internArm `json:"generic"`
	// Probes are the steady-state micro probes; the acceptance claim on
	// them is 0 interned allocs/op, with latency reported for honesty
	// (a hash probe is O(1), the merge-join probe O(log n) — the
	// end-to-end wins come from never materializing per-row keys).
	Probes []internArm `json:"probes"`
	// GeomeanSpeedup is over the Eval arms; the acceptance claim is ≥2x.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	// MaxProbeAllocs is the largest interned allocs/op across Probes;
	// the acceptance claim is 0.
	MaxProbeAllocs int64 `json:"max_probe_allocs"`
}

// internEvalArm compares the compiled interned evaluator with the
// string-path oracle on one (query, database) workload.
func internEvalArm(name string, q *cq.CQ, db *instance.Instance) internArm {
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: intern %s: query is not acyclic\n", name)
		os.Exit(1)
	}
	var stO, stI obs.EvalStats
	oAns, err := yannakakis.EvaluateWithForestOracleOpt(q, forest, db, yannakakis.Options{Stats: &stO})
	must(err)
	c, err := yannakakis.Compile(q, forest)
	must(err)
	iAns, err := c.Execute(db, yannakakis.Options{Stats: &stI})
	must(err)

	rb := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := yannakakis.EvaluateWithForestOracleOpt(q, forest, db, yannakakis.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ri := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(db, yannakakis.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	arm := internArm{
		Name:             name,
		Answers:          len(iAns),
		BaselineNsOp:     rb.NsPerOp(),
		InternedNsOp:     ri.NsPerOp(),
		BaselineAllocsOp: rb.AllocsPerOp(),
		InternedAllocsOp: ri.AllocsPerOp(),
		Agree:            sameAnswerSet(oAns, iAns) && len(oAns) == len(iAns),
		FingerprintMatch: stO.Fingerprint() == stI.Fingerprint(),
	}
	if arm.InternedNsOp > 0 {
		arm.Speedup = float64(arm.BaselineNsOp) / float64(arm.InternedNsOp)
	}
	return arm
}

// internGenericArm compares hom.Evaluate (the compiled Program over the
// interned view) with map-path backtracking through hom.Enumerate.
func internGenericArm(name string, q *cq.CQ, db *instance.Instance) internArm {
	bAns := mapPathEvaluate(q, db)
	rb := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapPathEvaluate(q, db)
		}
	})
	iAns := hom.Evaluate(q, db)
	ri := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hom.Evaluate(q, db)
		}
	})
	arm := internArm{
		Name:             name,
		Answers:          len(iAns),
		BaselineNsOp:     rb.NsPerOp(),
		InternedNsOp:     ri.NsPerOp(),
		BaselineAllocsOp: rb.AllocsPerOp(),
		InternedAllocsOp: ri.AllocsPerOp(),
		Agree:            sameAnswerSet(bAns, iAns) && len(bAns) == len(iAns),
		FingerprintMatch: true,
	}
	if arm.InternedNsOp > 0 {
		arm.Speedup = float64(arm.BaselineNsOp) / float64(arm.InternedNsOp)
	}
	return arm
}

// mapPathEvaluate is generic evaluation on the map path: hom.Enumerate
// over the ByPred/ByPos indexes, deduplicated on canonical tuple keys.
func mapPathEvaluate(q *cq.CQ, db *instance.Instance) [][]term.Term {
	seen := make(map[string]bool)
	var out [][]term.Term
	var buf []byte
	hom.Enumerate(q.Atoms, db, nil, func(s term.Subst) bool {
		tuple := s.ResolveTuple(q.Free)
		buf = hom.AppendTupleKey(buf[:0], tuple)
		if !seen[string(buf)] {
			seen[string(buf)] = true
			out = append(out, tuple)
		}
		return true
	})
	return hom.Canonicalize(out)
}

// internMicroSemijoinArm: the steady-state semijoin membership probe.
// Baseline is the string path (canonical key into a reused buffer, map
// probe); interned is the merge-join path (id projection into a reused
// buffer, binary search over sorted runs). One op probes every left row.
func internMicroSemijoinArm() internArm {
	const w, rows = 2, 4096
	mkRow := func(i, m1, m2 int) []term.Term {
		return []term.Term{
			term.Const(fmt.Sprintf("const-%d", i%m1)),
			term.Const(fmt.Sprintf("const-%d", i%m2)),
		}
	}
	rights := make([][]term.Term, rows)
	lefts := make([][]term.Term, rows)
	for i := range rights {
		rights[i] = mkRow(i, 37, 11)
		lefts[i] = mkRow(i, 41, 13)
	}

	// String path: the oracle's filter shape.
	filter := make(map[string]bool, rows)
	var buf []byte
	for _, row := range rights {
		buf = buf[:0]
		for _, t := range row {
			buf = t.AppendKey(buf)
		}
		filter[string(buf)] = true
	}
	baseHits := 0
	probeString := func() int {
		hits := 0
		for _, row := range lefts {
			buf = buf[:0]
			for _, t := range row {
				buf = t.AppendKey(buf)
			}
			if filter[string(buf)] {
				hits++
			}
		}
		return hits
	}
	baseHits = probeString()
	rb := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if probeString() != baseHits {
				b.Fatal("hits drifted")
			}
		}
	})

	// Interned path: the ievalState.semijoin probe shape.
	tab := symtab.New()
	var sorted []symtab.ID
	for _, row := range rights {
		for _, t := range row {
			sorted = append(sorted, tab.Intern(t))
		}
	}
	symtab.SortRows(sorted, w)
	leftIDs := make([]symtab.ID, 0, rows*w)
	for _, row := range lefts {
		for _, t := range row {
			leftIDs = append(leftIDs, tab.Intern(t))
		}
	}
	key := make([]symtab.ID, w)
	probeInterned := func() int {
		hits := 0
		for r := 0; r < rows; r++ {
			key[0] = leftIDs[r*w]
			key[1] = leftIDs[r*w+1]
			if symtab.ContainsRow(sorted, w, key) {
				hits++
			}
		}
		return hits
	}
	internHits := probeInterned()
	ri := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if probeInterned() != internHits {
				b.Fatal("hits drifted")
			}
		}
	})

	arm := internArm{
		Name:             "micro-semijoin-probe",
		Answers:          internHits,
		BaselineNsOp:     rb.NsPerOp(),
		InternedNsOp:     ri.NsPerOp(),
		BaselineAllocsOp: rb.AllocsPerOp(),
		InternedAllocsOp: ri.AllocsPerOp(),
		Agree:            baseHits == internHits && baseHits > 0,
		FingerprintMatch: true,
		Probe:            true,
	}
	if arm.InternedNsOp > 0 {
		arm.Speedup = float64(arm.BaselineNsOp) / float64(arm.InternedNsOp)
	}
	return arm
}

// internMicroIndexArm: the leaf-load index probe. Baseline is the ByPos
// map probe; interned is a symbol lookup plus a binary search over the
// position's sorted run.
func internMicroIndexArm() internArm {
	r := rand.New(rand.NewSource(47))
	db := indexWorkloadDB(r, []string{"R0"}, 20000, 100, 2000)
	consts := make([]term.Term, 100)
	for i := range consts {
		consts[i] = term.Const(fmt.Sprintf("g%d", i))
	}

	baseCount := 0
	probeByPos := func() int {
		n := 0
		for _, c := range consts {
			n += len(db.ByPos("R0", 0, c))
		}
		return n
	}
	baseCount = probeByPos()
	rb := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if probeByPos() != baseCount {
				b.Fatal("count drifted")
			}
		}
	})

	iv := db.Interned()
	rel := iv.Relation("R0")
	probeRange := func() int {
		n := 0
		for _, c := range consts {
			if id, ok := iv.Table.Lookup(c); ok {
				lo, hi := rel.Range(0, id)
				n += hi - lo
			}
		}
		return n
	}
	internCount := probeRange()
	ri := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if probeRange() != internCount {
				b.Fatal("count drifted")
			}
		}
	})

	arm := internArm{
		Name:             "micro-index-probe",
		Answers:          internCount,
		BaselineNsOp:     rb.NsPerOp(),
		InternedNsOp:     ri.NsPerOp(),
		BaselineAllocsOp: rb.AllocsPerOp(),
		InternedAllocsOp: ri.AllocsPerOp(),
		Agree:            baseCount == internCount && baseCount > 0,
		FingerprintMatch: true,
		Probe:            true,
	}
	if arm.InternedNsOp > 0 {
		arm.Speedup = float64(arm.BaselineNsOp) / float64(arm.InternedNsOp)
	}
	return arm
}

// runInternOut measures the interned hot-path trajectory and writes
// BENCH_5.
func runInternOut(path string) int {
	report := internReport{
		GeneratedBy: "experiments -intern-out",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	r := rand.New(rand.NewSource(41))
	starQ := cq.MustParse("q(x) :- R0('g0',x), R1('g0',x), R2('g0',x).")
	for _, rows := range []int{8000, 32000} {
		db := indexWorkloadDB(r, []string{"R0", "R1", "R2"}, rows, 100, 200)
		report.Eval = append(report.Eval,
			internEvalArm(fmt.Sprintf("eval-star-indexed-%dk", 3*rows/1000), starQ, db))
	}
	graph := gen.RandomGraphDB(rand.New(rand.NewSource(42)), 20000, 300)
	report.Eval = append(report.Eval,
		internEvalArm("eval-path3-free", cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w)."), graph),
		internEvalArm("eval-bool-path6", cq.MustParse("q :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g)."), graph),
	)
	report.Generic = internGenericArm("generic-star-hom", starQ,
		indexWorkloadDB(rand.New(rand.NewSource(43)), []string{"R0", "R1", "R2"}, 8000, 100, 200))
	report.Probes = append(report.Probes, internMicroSemijoinArm(), internMicroIndexArm())

	printArm := func(a internArm) {
		fmt.Printf("intern %-24s answers=%-6d baseline=%-10d interned=%-10d ns/op  allocs %d→%d  speedup=%.2fx agree=%v fp=%v\n",
			a.Name, a.Answers, a.BaselineNsOp, a.InternedNsOp,
			a.BaselineAllocsOp, a.InternedAllocsOp, a.Speedup, a.Agree, a.FingerprintMatch)
	}
	logSum := 0.0
	for _, a := range report.Eval {
		printArm(a)
		if !a.Agree || !a.FingerprintMatch {
			fmt.Fprintf(os.Stderr, "experiments: intern %s: interned and baseline paths disagree\n", a.Name)
			return 1
		}
		if a.Speedup <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: intern %s: no measurable speedup ratio\n", a.Name)
			return 1
		}
		logSum += math.Log(a.Speedup)
	}
	report.GeomeanSpeedup = math.Exp(logSum / float64(len(report.Eval)))
	printArm(report.Generic)
	if !report.Generic.Agree {
		fmt.Fprintln(os.Stderr, "experiments: intern: generic arm answers disagree")
		return 1
	}
	for _, a := range report.Probes {
		printArm(a)
		if !a.Agree {
			fmt.Fprintf(os.Stderr, "experiments: intern %s: probe results disagree\n", a.Name)
			return 1
		}
		if a.InternedAllocsOp > report.MaxProbeAllocs {
			report.MaxProbeAllocs = a.InternedAllocsOp
		}
	}
	if report.GeomeanSpeedup < 2 {
		fmt.Fprintf(os.Stderr, "experiments: intern: geomean speedup %.2fx is below the 2x acceptance claim\n", report.GeomeanSpeedup)
		return 1
	}
	if report.MaxProbeAllocs != 0 {
		fmt.Fprintf(os.Stderr, "experiments: intern: probe arms allocate (%d allocs/op), want 0\n", report.MaxProbeAllocs)
		return 1
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	fmt.Printf("wrote %s (geomean speedup %.2fx, max probe allocs %d)\n",
		path, report.GeomeanSpeedup, report.MaxProbeAllocs)
	return 0
}
