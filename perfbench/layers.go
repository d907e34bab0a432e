package main

import "strings"

// Per-layer metrics of the traced phase. Times are self times in ms and
// counts are sums, both per replayed request (answers_per_op: per
// replayed /evaluate). Cache ratios come from /metrics deltas around the
// traced phase and are given with their base counts.

// layerSpans maps each time metric to the span it reads.
var layerSpans = map[string]string{
	"server.self_ms":            "server",
	"parse.query_ms":            "parse.query",
	"parse.deps_ms":             "parse.deps",
	"parse.atoms_ms":            "parse.atoms",
	"canon.key_ms":              "canon.key",
	"deps.classify_ms":          "deps.classify",
	"core.decide_ms":            "core.decide",
	"chase.ms":                  "chase",
	"containment.prepare_ms":    "containment.prepare",
	"hom.core_ms":               "hom.core",
	"hypergraph.acyclic_ms":     "hypergraph.acyclic",
	"plan.compile_ms":           "plan.compile",
	"yannakakis.execute_ms":     "yannakakis.execute",
	"yannakakis.incremental_ms": "yannakakis.incremental",
	"generic.execute_ms":        "generic.execute",
	"serialize_ms":              "serialize",
	"instance.apply_delta_ms":   "instance.apply_delta",
}

// layerCounts lists the count metrics, named as the replays count them.
var layerCounts = []string{
	"chase.atoms", "containment.checks", "rewrite.disjuncts", "hom.backtracks",
	"yannakakis.rows_scanned", "yannakakis.index_hits", "yannakakis.join_rows",
	"yannakakis.trees_reused", "yannakakis.trees_repaired", "yannakakis.trees_recomputed",
	"instance.delta_atoms",
}

// decisionLayers are the decider's layers, in order.
var decisionLayers = []string{"core", "unsatisfiable", "quotient", "chase-subset", "complete"}

// cacheSeries names each server cache's hit and miss series.
var cacheSeries = []struct{ name, hits, misses string }{
	{"decision", `semacycd_cache_hits_total{cache="decision"}`, `semacycd_cache_misses_total{cache="decision"}`},
	{"plan", `semacycd_cache_hits_total{cache="plan"}`, `semacycd_cache_misses_total{cache="plan"}`},
	{"prepared", `semacycd_cache_hits_total{cache="prepared"}`, `semacycd_cache_misses_total{cache="prepared"}`},
}

func layerMetrics(tr *tracer, before, after map[string]float64, untraced, traced *phase) map[string]metric {
	out := map[string]metric{}
	n := float64(tr.requests)
	per := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	self := tr.selfTimes()
	for m, s := range layerSpans {
		out[m] = metric{per(self[s]), "ms"}
	}
	for _, l := range decisionLayers {
		out["core.layer."+l+".ms"] = metric{per(self["core.layer."+l]), "ms"}
		out["core.layer."+l+".candidates"] = metric{per(tr.counts["core.layer."+l+".candidates"]), "count"}
	}
	for _, c := range layerCounts {
		out[c] = metric{per(tr.counts[c]), "count"}
	}
	answers := 0.0
	if e := tr.counts["evaluates"]; e > 0 {
		answers = tr.counts["answers"] / e
	}
	out["answers_per_op"] = metric{answers, "count"}

	delta := func(series string) float64 { return after[series] - before[series] }
	ratio := func(name string, hits, misses float64) {
		r := 0.0
		if hits+misses > 0 {
			r = hits / (hits + misses)
		}
		out["server."+name+"_cache.hit_ratio"] = metric{r, "ratio"}
		out["server."+name+"_cache.hits"] = metric{hits, "count"}
		out["server."+name+"_cache.misses"] = metric{misses, "count"}
	}
	for _, c := range cacheSeries {
		ratio(c.name, delta(c.hits), delta(c.misses))
	}
	// A reducer-cache hit is any evaluation that found retained state;
	// "cold" is the miss.
	var reducerHits float64
	for series := range after {
		if strings.HasPrefix(series, "semacycd_reducer_decisions_total{") && !strings.Contains(series, `"cold"`) {
			reducerHits += delta(series)
		}
	}
	ratio("reducer", reducerHits, delta(`semacycd_reducer_decisions_total{decision="cold"}`))
	out["server.shed"] = metric{delta("server_shed_total"), "count"}

	overhead := 0.0
	if t := traced.opsPerS(); t > 0 {
		overhead = (untraced.opsPerS()/t - 1) * 100
	}
	out["trace.overhead_pct"] = metric{overhead, "%"}
	return out
}
