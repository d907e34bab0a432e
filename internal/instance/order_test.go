package instance

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"semacyclic/internal/term"
)

// orderModel is a reference model of the instance's index order: the
// same lists, maintained by a scan for the removed atom and a swap of
// the list's last element into its index.
type orderModel struct {
	present map[string]Atom
	byPred  map[string][]Atom
	byPos   map[posKey][]Atom
}

func newOrderModel() *orderModel {
	return &orderModel{
		present: make(map[string]Atom),
		byPred:  make(map[string][]Atom),
		byPos:   make(map[posKey][]Atom),
	}
}

func scanSwap(list []Atom, a Atom) []Atom {
	for i := range list {
		if list[i].Equal(a) {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func (m *orderModel) add(a Atom) {
	k := a.Key()
	if _, ok := m.present[k]; ok {
		return
	}
	m.present[k] = a
	m.byPred[a.Pred] = append(m.byPred[a.Pred], a)
	for i, t := range a.Args {
		pk := posKey{a.Pred, i, t}
		m.byPos[pk] = append(m.byPos[pk], a)
	}
}

func (m *orderModel) remove(a Atom) {
	k := a.Key()
	if _, ok := m.present[k]; !ok {
		return
	}
	delete(m.present, k)
	m.byPred[a.Pred] = scanSwap(m.byPred[a.Pred], a)
	for i, t := range a.Args {
		pk := posKey{a.Pred, i, t}
		m.byPos[pk] = scanSwap(m.byPos[pk], a)
		if len(m.byPos[pk]) == 0 {
			delete(m.byPos, pk)
		}
	}
}

// applyDelta nets the batch against the model's atom set (distinct
// present deletes not re-inserted, then distinct absent inserts, each
// in batch order) and applies deletes before inserts.
func (m *orderModel) applyDelta(inserts, deletes []Atom) {
	insKey := make(map[string]bool)
	for _, a := range inserts {
		insKey[a.Key()] = true
	}
	var effDel, effIns []Atom
	seen := make(map[string]bool)
	for _, a := range deletes {
		k := a.Key()
		if _, ok := m.present[k]; ok && !seen[k] && !insKey[k] {
			effDel = append(effDel, a)
		}
		seen[k] = true
	}
	seen = make(map[string]bool)
	for _, a := range inserts {
		k := a.Key()
		if _, ok := m.present[k]; !ok && !seen[k] {
			effIns = append(effIns, a)
		}
		seen[k] = true
	}
	for _, a := range effDel {
		m.remove(a)
	}
	for _, a := range effIns {
		m.add(a)
	}
}

// replaceTerm rewrites the atoms holding old in per-predicate list
// order over sorted predicates, removing each before adding its image.
func (m *orderModel) replaceTerm(old, new term.Term) {
	if old == new {
		return
	}
	preds := make([]string, 0, len(m.byPred))
	for p := range m.byPred {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var touched []Atom
	for _, p := range preds {
		for _, a := range m.byPred[p] {
			for _, t := range a.Args {
				if t == old {
					touched = append(touched, a)
					break
				}
			}
		}
	}
	for _, a := range touched {
		m.remove(a)
		na := a.Clone()
		for i := range na.Args {
			if na.Args[i] == old {
				na.Args[i] = new
			}
		}
		m.add(na)
	}
}

// checkOrder compares the instance's index lists element for element
// with the model's and checks every stored slot index.
func checkOrder(ins *Instance, m *orderModel) error {
	if ins.Len() != len(m.present) {
		return fmt.Errorf("Len %d, model %d", ins.Len(), len(m.present))
	}
	sameList := func(got, want []Atom) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				return false
			}
		}
		return true
	}
	for p := range m.byPred {
		if !sameList(ins.ByPred(p), m.byPred[p]) {
			return fmt.Errorf("ByPred(%s) = %v, model %v", p, ins.ByPred(p), m.byPred[p])
		}
	}
	for p := range ins.byPred {
		if _, ok := m.byPred[p]; !ok && len(ins.byPred[p]) > 0 {
			return fmt.Errorf("ByPred(%s) = %v, model has none", p, ins.byPred[p])
		}
	}
	if len(ins.byPos) != len(m.byPos) {
		return fmt.Errorf("%d ByPos lists, model %d", len(ins.byPos), len(m.byPos))
	}
	for pk, want := range m.byPos {
		if got := ins.ByPos(pk.pred, pk.pos, pk.t); !sameList(got, want) {
			return fmt.Errorf("ByPos(%s,%d,%s) = %v, model %v", pk.pred, pk.pos, pk.t, got, want)
		}
	}
	for k, s := range ins.atoms {
		list := ins.byPred[s.Pred]
		if s.at < 0 || s.at >= len(list) || list[s.at].Key() != k {
			return fmt.Errorf("slot of %s says index %d of %v", s.Atom, s.at, list)
		}
	}
	return nil
}

func TestRemoveDeltaPreservesIndexOrder(t *testing.T) {
	c := func(n string) term.Term { return term.Const(n) }
	terms := []term.Term{c("a"), c("b"), c("c"), c("d"), term.NullTerm("n1")}
	pool := []Atom{NewAtom("Z")} // a 0-ary atom
	for _, x := range terms {
		pool = append(pool, NewAtom("S", x))
		for _, y := range terms {
			pool = append(pool, NewAtom("E", x, y)) // includes E(a,a)
		}
	}
	pick := func(r *rand.Rand, n int) []Atom {
		out := make([]Atom, r.Intn(n+1))
		for i := range out {
			out[i] = pool[r.Intn(len(pool))]
		}
		return out
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ins, m := New(), newOrderModel()
		for step := 0; step < 80; step++ {
			var op string
			switch k := r.Intn(10); {
			case k < 4:
				a := pool[r.Intn(len(pool))]
				op = "Add " + a.String()
				if err := ins.Add(a); err != nil {
					t.Fatal(err)
				}
				m.add(a)
			case k < 6:
				a := pool[r.Intn(len(pool))]
				op = "Remove " + a.String()
				ins.Remove(a)
				m.remove(a)
			case k < 9:
				inserts, deletes := pick(r, 6), pick(r, 6)
				op = fmt.Sprintf("ApplyDelta(%v, %v)", inserts, deletes)
				if _, err := ins.ApplyDelta(inserts, deletes); err != nil {
					t.Fatal(err)
				}
				m.applyDelta(inserts, deletes)
			default:
				old, new := terms[r.Intn(len(terms))], terms[r.Intn(len(terms))]
				op = fmt.Sprintf("ReplaceTerm(%s, %s)", old, new)
				ins.ReplaceTerm(old, new)
				m.replaceTerm(old, new)
			}
			if err := checkOrder(ins, m); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
		}
	}
}

func TestPatchedLenMatchesApplyDelta(t *testing.T) {
	db := mustDB(t, "E(a,b). E(b,c). E(c,a). S(a).")
	cases := []struct{ ins, del string }{
		{"E(a,d). E(a,d). E(a,b).", ""},
		{"", "E(a,b). E(a,b). E(x,y). S(a)."},
		{"E(a,b). E(d,d).", "E(a,b). E(b,c). E(d,d)."},
		{"S(z).", "S(z). S(a)."},
	}
	for _, tc := range cases {
		ins, del := mustAtoms(t, tc.ins), mustAtoms(t, tc.del)
		want := db.PatchedLen(ins, del)
		if _, err := db.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if db.Len() != want {
			t.Errorf("PatchedLen(%q, %q) = %d, ApplyDelta left %d", tc.ins, tc.del, want, db.Len())
		}
	}
}

// BenchmarkApplyDeltaDelete times one 500-atom delete batch against a
// binary relation of |E| atoms with no interned view cached, i.e. the
// index-maintenance half of ApplyDelta. The per-batch cost should not
// grow with |E|. Each deleted batch is re-inserted off the clock.
func BenchmarkApplyDeltaDelete(b *testing.B) {
	const batch = 500
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("E=%dk", n/1000), func(b *testing.B) {
			atoms := make([]Atom, n)
			for i := range atoms {
				atoms[i] = NewAtom("E", term.Const(fmt.Sprintf("v%d", i)), term.Const(fmt.Sprintf("v%d", (i*7+1)%n)))
			}
			db := New()
			if _, err := db.ApplyDelta(atoms, nil); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := r.Intn(n - batch)
				del := atoms[off : off+batch]
				if res, err := db.ApplyDelta(nil, del); err != nil || res.Deleted != batch {
					b.Fatalf("delete batch: %+v, %v", res, err)
				}
				b.StopTimer()
				if _, err := db.ApplyDelta(del, nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
