package core

import (
	"fmt"
	"strings"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// This file is the differential-testing driver behind the torture
// corpus (internal/corpus, testdata/corpus) and the FuzzMethodAgreement
// harness: it runs every evaluation method applicable to a
// (q, Σ, D) triple and demands byte-identical canonical answer sets,
// and it checks the decision pipeline's layer-monotonicity and
// parallelism-independence contracts.

// MethodAnswers is one evaluation arm's canonical answer set.
type MethodAnswers struct {
	// Method is a Method* tag, or "yannakakis-oracle" for the retained
	// string-path Yannakakis evaluator run on the same witness.
	Method  string
	Answers [][]term.Term
}

// CrossCheckReport records a differential evaluation run.
type CrossCheckReport struct {
	// Verdict and Layer are the Decide outcome backing method selection.
	Verdict Verdict
	Layer   string
	// DBSatisfiesSigma reports chase.Satisfies(db, Σ). The Σ-aware
	// methods are only sound on satisfying databases, so arms beyond
	// the generic evaluator are gated on it (see ApplicableMethods).
	DBSatisfiesSigma bool
	// Methods holds every arm that ran, generic first.
	Methods []MethodAnswers
	// Answers is the agreed canonical answer set (the generic arm's).
	Answers [][]term.Term
}

// ApplicableMethods returns the evaluation methods whose soundness
// preconditions hold for a decision verdict, a dependency set, and a
// database known (or not) to satisfy Σ:
//
//   - generic backtracking: always sound, the baseline every other
//     arm is compared against;
//   - yannakakis: needs a verified witness (verdict Yes). The witness
//     satisfies q ≡Σ witness, which constrains only databases ⊨ Σ —
//     except when the decision settled at the Σ-free "core" layer,
//     where witness = core(q) is equivalent on every database;
//   - guarded-game (Thm. 25): guarded pure tgds, q semantically
//     acyclic, D ⊨ Σ;
//   - egd-game (§7): pure egds, q semantically acyclic, D ⊨ Σ.
func ApplicableMethods(set *deps.Set, verdict Verdict, layer string, dbSatisfies bool) []string {
	out := []string{MethodGeneric}
	if verdict != Yes {
		return out
	}
	if dbSatisfies || layer == "core" {
		out = append(out, MethodYannakakis)
	}
	if dbSatisfies && set.Len() > 0 && set.PureTGDs() && set.IsGuarded() {
		out = append(out, MethodGuardedGame)
	}
	if dbSatisfies && set.PureEGDs() && set.Len() > 0 {
		out = append(out, MethodEGDGame)
	}
	return out
}

// CrossCheck decides q under Σ once, evaluates q over db with every
// applicable method — including the interned Yannakakis path and its
// retained string-keyed oracle — and verifies that all arms return the
// same canonical answer set. A non-nil error either propagates an
// engine failure or, the interesting case, describes the first method
// disagreement; the partially filled report is returned alongside it
// so harnesses can minimize and freeze the case.
func CrossCheck(q *cq.CQ, set *deps.Set, db *instance.Instance, opt Options) (*CrossCheckReport, error) {
	if set == nil {
		set = &deps.Set{}
	}
	res, err := Decide(q, set, opt)
	if err != nil {
		return nil, err
	}
	sat := chase.Satisfies(db, set)
	rep := &CrossCheckReport{Verdict: res.Verdict, Layer: res.Layer, DBSatisfiesSigma: sat}
	for _, m := range ApplicableMethods(set, res.Verdict, res.Layer, sat) {
		plan, err := CompilePlan(q, set, opt, m)
		if err != nil {
			return rep, fmt.Errorf("core: crosscheck: compiling method %s: %w", m, err)
		}
		ans, _, err := plan.Execute(db, EvalOptions{Cancel: opt.Cancel})
		if err != nil {
			return rep, fmt.Errorf("core: crosscheck: executing method %s: %w", m, err)
		}
		rep.Methods = append(rep.Methods, MethodAnswers{Method: m, Answers: ans})
		if m == MethodYannakakis {
			oracle, err := yannakakis.EvaluateWithForestOracleOpt(plan.Witness, plan.Forest, db, yannakakis.Options{})
			if err != nil {
				return rep, fmt.Errorf("core: crosscheck: yannakakis oracle: %w", err)
			}
			rep.Methods = append(rep.Methods, MethodAnswers{
				Method: "yannakakis-oracle", Answers: hom.Canonicalize(oracle),
			})
		}
	}
	rep.Answers = rep.Methods[0].Answers
	for _, arm := range rep.Methods[1:] {
		if !SameAnswers(rep.Answers, arm.Answers) {
			return rep, fmt.Errorf("core: method disagreement on %s (verdict %s, layer %s): %s returned %s; %s returned %s",
				q, res.Verdict, res.Layer,
				rep.Methods[0].Method, FormatAnswers(rep.Answers),
				arm.Method, FormatAnswers(arm.Answers))
		}
	}
	return rep, nil
}

// SameAnswers reports element-wise equality of two canonical answer
// lists (both sides must already be in canonical order, as every
// Plan.Execute result is).
func SameAnswers(a, b [][]term.Term) bool {
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

// FormatAnswers renders an answer list compactly for disagreement
// messages, truncating after a few tuples.
func FormatAnswers(ans [][]term.Term) string {
	const maxShown = 5
	var b strings.Builder
	fmt.Fprintf(&b, "%d answers [", len(ans))
	for i, tup := range ans {
		if i == maxShown {
			b.WriteString(" ...")
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('(')
		for j, t := range tup {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(t.String())
		}
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}

// CheckLayerMonotonicity verifies the decision pipeline's structural
// contracts on one (q, Σ):
//
//   - parallelism independence: Decide returns an identical verdict,
//     definitiveness, settling layer and witness at Parallelism 1, 4
//     and 8, and with the search memo disabled;
//   - layer monotonicity (layer-k yes ⇒ layer-(k+1) yes): a Yes found
//     by the cheap layers alone (SkipCompleteSearch) must survive the
//     full pipeline, the full pipeline's early-layer results must be
//     bit-identical with or without layer 4 behind them, and skipping
//     the complete layer must never manufacture a definitive No.
//
// The base options' Parallelism and SkipCompleteSearch fields are
// overridden per probe.
func CheckLayerMonotonicity(q *cq.CQ, set *deps.Set, opt Options) error {
	type probe struct {
		name string
		res  *Result
	}
	var full []probe
	for _, par := range []int{1, 4, 8} {
		o := opt
		o.Parallelism = par
		o.SkipCompleteSearch = false
		res, err := Decide(q, set, o)
		if err != nil {
			return err
		}
		full = append(full, probe{fmt.Sprintf("full/j%d", par), res})
	}
	{
		o := opt
		o.Parallelism = 1
		o.SkipCompleteSearch = false
		o.DisableSearchMemo = true
		res, err := Decide(q, set, o)
		if err != nil {
			return err
		}
		full = append(full, probe{"full/no-memo", res})
	}
	ref := full[0]
	for _, p := range full[1:] {
		if err := sameDecision(ref.res, p.res); err != nil {
			return fmt.Errorf("core: decision differs between %s and %s: %w", ref.name, p.name, err)
		}
	}

	o := opt
	o.Parallelism = 4
	o.SkipCompleteSearch = true
	skip, err := Decide(q, set, o)
	if err != nil {
		return err
	}
	fullRes := ref.res
	if skip.Verdict == Yes && fullRes.Verdict != Yes {
		return fmt.Errorf("core: monotonicity violated: layers 1-3 found witness %s but the full pipeline returned %s",
			skip.Witness, fullRes.Verdict)
	}
	if fullRes.Layer != "complete" && fullRes.Layer != "budget" && fullRes.Layer != "undecidable-class" {
		if err := sameDecision(fullRes, skip); err != nil {
			return fmt.Errorf("core: early-layer result changed when layer 4 was skipped: %w", err)
		}
	}
	if skip.Verdict == No && skip.Definitive && fullRes.Verdict != No {
		return fmt.Errorf("core: skipping the complete layer manufactured a definitive No (full pipeline: %s)", fullRes.Verdict)
	}
	return nil
}

// sameDecision compares two decisions field-for-field. Witnesses are
// compared by canonical (renaming-invariant) form, matching the
// determinism contract: the elected witness is canonical up to
// variable naming, and the concrete names may legitimately differ
// with scheduling or shared-memo state.
func sameDecision(a, b *Result) error {
	if a.Verdict != b.Verdict {
		return fmt.Errorf("verdict %s vs %s", a.Verdict, b.Verdict)
	}
	if a.Definitive != b.Definitive {
		return fmt.Errorf("definitive %v vs %v", a.Definitive, b.Definitive)
	}
	if a.Layer != b.Layer {
		return fmt.Errorf("layer %s vs %s", a.Layer, b.Layer)
	}
	if witnessString(a) != witnessString(b) {
		return fmt.Errorf("witness %q vs %q", witnessString(a), witnessString(b))
	}
	return nil
}

func witnessString(r *Result) string {
	if r.Witness == nil {
		return ""
	}
	return r.Witness.CanonicalKey()
}
