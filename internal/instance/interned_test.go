package instance

import (
	"testing"

	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func internedFixture(t *testing.T) *Instance {
	t.Helper()
	ins := New()
	facts := []Atom{
		NewAtom("E", term.Const("a"), term.Const("b")),
		NewAtom("E", term.Const("b"), term.Const("c")),
		NewAtom("E", term.Const("a"), term.Const("c")),
		NewAtom("P", term.Const("a")),
	}
	for _, a := range facts {
		if err := ins.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return ins
}

// decodeRow de-interns row i of rel back into an atom of pred.
func decodeRow(v *InternedView, rel *InternedRelation, pred string, i int) Atom {
	return NewAtom(pred, v.Table.AppendTerms(nil, rel.Row(i))...)
}

func TestInternedViewRoundTrip(t *testing.T) {
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	if rel == nil || rel.Arity != 2 || rel.Rows() != 3 {
		t.Fatalf("Relation(E) = %+v", rel)
	}
	// Every row decodes back to its atom, in ByPred order.
	atoms := ins.ByPred("E")
	for i := 0; i < rel.Rows(); i++ {
		if got := decodeRow(v, rel, "E", i); !got.Equal(atoms[i]) {
			t.Fatalf("row %d decodes to %v, ByPred has %v", i, got, atoms[i])
		}
	}
	if v.Relation("Q") != nil {
		t.Fatal("Relation of absent predicate should be nil")
	}
}

func TestInternedRangeMatchesByPos(t *testing.T) {
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	for _, c := range []term.Term{term.Const("a"), term.Const("b"), term.Const("c"), term.Const("z")} {
		for pos := 0; pos < 2; pos++ {
			want := ins.ByPos("E", pos, c)
			var got []Atom
			if id, ok := v.Table.Lookup(c); ok {
				lo, hi := rel.Range(pos, id)
				for k := lo; k < hi; k++ {
					got = append(got, decodeRow(v, rel, "E", rel.RowAt(pos, k)))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Range(%d,%v): %d atoms, ByPos has %d", pos, c, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("Range(%d,%v)[%d] = %v, ByPos order gives %v", pos, c, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInternedCacheInvalidation(t *testing.T) {
	ins := internedFixture(t)
	if ins.InternedCached() != nil {
		t.Fatal("cache populated before first Interned call")
	}
	v1 := ins.Interned()
	if ins.InternedCached() != v1 {
		t.Fatal("cache not populated")
	}
	if ins.Interned() != v1 {
		t.Fatal("Interned rebuilt without mutation")
	}
	if err := ins.Add(NewAtom("E", term.Const("c"), term.Const("a"))); err != nil {
		t.Fatal(err)
	}
	if ins.InternedCached() != nil {
		t.Fatal("Add did not invalidate cache")
	}
	v2 := ins.Interned()
	if v2.Relation("E").Rows() != 4 {
		t.Fatalf("rebuilt view has %d rows, want 4", v2.Relation("E").Rows())
	}
	ins.Remove(NewAtom("P", term.Const("a")))
	if ins.InternedCached() != nil {
		t.Fatal("Remove did not invalidate cache")
	}
	if ins.Interned().Relation("P") != nil {
		t.Fatal("removed predicate still has a relation")
	}
	// The old view must be unaffected by the mutations (private copies).
	if v1.Relation("E").Rows() != 3 || v1.Relation("P") == nil {
		t.Fatal("stale view corrupted by mutation")
	}
}

func TestAllocsInternedRangeProbe(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	id, ok := v.Table.Lookup(term.Const("a"))
	if !ok {
		t.Fatal("lookup miss")
	}
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		lo, hi := rel.Range(0, id)
		sink += hi - lo
	})
	if allocs != 0 {
		t.Fatalf("Range probe allocates %v per op, want 0", allocs)
	}
	_ = sink
	var sid symtab.ID
	allocs = testing.AllocsPerRun(1000, func() {
		got, _ := v.Table.Lookup(term.Const("b"))
		sid += got
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per op, want 0", allocs)
	}
}
