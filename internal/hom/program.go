package hom

import (
	"errors"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// ErrCancelled is returned by Program.Execute when its cancel channel
// closes mid-search.
var ErrCancelled = errors.New("hom: cancelled")

// cancelEvery is the number of candidates examined between two cancel
// polls: a fruitless backtrack that never reaches an answer still
// checks the channel.
const cancelEvery = 1024

// Program is a conjunctive query compiled for generic evaluation over
// interned columnar views — the backtracking counterpart of
// yannakakis.Compiled. Compile fixes the static atom order (orderAtoms)
// and gives every variable a dense slot; per atom position it records
// whether the position holds a constant, binds a slot or checks one.
// Execute then backtracks over []symtab.ID bindings and never touches a
// term.Term until the distinct answers are materialized. A Program is
// immutable and safe for concurrent Execute calls.
//
// Per atom, execution scans the smallest Range among the positions
// pinned before the atom is reached (constants and slots bound by
// earlier atoms); an atom with every position pinned is one membership
// probe on the relation's sorted rows. Once the answer slots are all
// bound, the remaining atoms need only one witness, and an answer
// already found skips them altogether.
type Program struct {
	atoms  []patom
	consts []term.Term
	slots  int
	// free is the query's answer tuple; out[i] is the slot of free[i],
	// or -1 for a term no atom binds, which answers carry as is (as
	// term.Subst.ResolveTuple would).
	free []term.Term
	out  []int32
	// split is the number of leading atoms that bind every answer slot;
	// the atoms after it are existential.
	split int
}

// patom is one compiled query atom.
type patom struct {
	pred  string
	arity int
	// Per position: the slot of a variable (or pattern null) and -1 for
	// a constant, whose index into Program.consts is in cst (-1 for a
	// slot position).
	slot []int32
	cst  []int32
	// bind marks a slot's first occurrence in the atom order: the
	// position binds the slot instead of checking it.
	bind []bool
	// pinned lists the positions fixed before the atom is reached;
	// probe is set when that is every position.
	pinned []int32
	probe  bool
}

// Compile lowers q into a Program. Variables — and, as in Enumerate,
// any null a pattern mentions — are bindable; constants are rigid.
func Compile(q *cq.CQ) *Program {
	p := &Program{free: q.Free}
	slotOf := make(map[term.Term]int32)
	constOf := make(map[term.Term]int32)
	for _, a := range orderAtoms(q.Atoms, nil) {
		pa := patom{
			pred:  a.Pred,
			arity: len(a.Args),
			slot:  make([]int32, len(a.Args)),
			cst:   make([]int32, len(a.Args)),
			bind:  make([]bool, len(a.Args)),
		}
		known := len(slotOf) // slots below this are bound by earlier atoms
		for pos, t := range a.Args {
			pa.slot[pos], pa.cst[pos] = -1, -1
			if t.IsConst() {
				c, ok := constOf[t]
				if !ok {
					c = int32(len(p.consts))
					constOf[t] = c
					p.consts = append(p.consts, t)
				}
				pa.cst[pos] = c
				pa.pinned = append(pa.pinned, int32(pos))
				continue
			}
			s, ok := slotOf[t]
			if !ok {
				s = int32(len(slotOf))
				slotOf[t] = s
				pa.bind[pos] = true
			}
			pa.slot[pos] = s
			if int(s) < known {
				pa.pinned = append(pa.pinned, int32(pos))
			}
		}
		pa.probe = len(pa.pinned) == pa.arity
		p.atoms = append(p.atoms, pa)
	}
	p.slots = len(slotOf)
	p.out = make([]int32, len(q.Free))
	for i, x := range q.Free {
		p.out[i] = -1
		if s, ok := slotOf[x]; ok {
			p.out[i] = s
		}
	}
	// split: the first atom index at which every answer slot is bound.
	for i, a := range p.atoms {
		for pos, s := range a.slot {
			if a.bind[pos] && p.answerSlot(s) {
				p.split = i + 1
			}
		}
	}
	return p
}

func (p *Program) answerSlot(s int32) bool {
	for _, o := range p.out {
		if o == s {
			return true
		}
	}
	return false
}

// Execute evaluates the program over one interned view: the distinct
// answer tuples, in the order the search found them (callers wanting
// the canonical order apply Canonicalize). A Boolean query stops at its
// first homomorphism. cancel, when non-nil, is polled on the first and
// then every cancelEvery candidates; a closed channel aborts with
// ErrCancelled.
func (p *Program) Execute(iv *instance.InternedView, cancel <-chan struct{}) ([][]term.Term, error) {
	e := p.newExec(iv, cancel)
	if e == nil {
		return nil, nil
	}
	e.run()
	if e.cancelled {
		return nil, ErrCancelled
	}
	return e.answers(iv.Table), nil
}

// exec is one Execute run's mutable state.
type exec struct {
	p      *Program
	rels   []*instance.InternedRelation // per atom
	sorted [][]symtab.ID                // per probe atom: the relation's sorted rows
	cid    []symtab.ID                  // the program's constants in the view's id space
	b      []symtab.ID                  // slot bindings
	key    []symtab.ID                  // probe key scratch
	row    []symtab.ID                  // answer row scratch
	ans    answerSet

	cancel     <-chan struct{}
	cands      int64
	backtracks int64
	stopped    bool // no further search: cancelled, or a Boolean answer found
	cancelled  bool
}

// newExec binds the program to a view, or returns nil when the view
// provably has no answer: a relation is missing, empty or of another
// arity, or a constant does not occur in the view.
func (p *Program) newExec(iv *instance.InternedView, cancel <-chan struct{}) *exec {
	e := &exec{
		p:      p,
		rels:   make([]*instance.InternedRelation, len(p.atoms)),
		sorted: make([][]symtab.ID, len(p.atoms)),
		cid:    make([]symtab.ID, len(p.consts)),
		b:      make([]symtab.ID, p.slots),
		row:    make([]symtab.ID, len(p.out)),
		cancel: cancel,
		ans:    answerSet{w: len(p.out)},
	}
	for i, t := range p.consts {
		id, ok := iv.Table.Lookup(t)
		if !ok {
			return nil
		}
		e.cid[i] = id
	}
	maxArity := 0
	for i := range p.atoms {
		a := &p.atoms[i]
		rel := iv.Relation(a.pred)
		if rel == nil || rel.Arity != a.arity || rel.Rows() == 0 {
			return nil
		}
		e.rels[i] = rel
		if a.probe {
			e.sorted[i] = rel.SortedRows()
		}
		maxArity = max(maxArity, a.arity)
	}
	e.key = make([]symtab.ID, maxArity)
	return e
}

// run performs the search and flushes the hom counters.
func (e *exec) run() {
	e.step(0)
	obs.HomEnumerations.Add(1)
	if e.backtracks > 0 {
		obs.HomBacktracks.Add(e.backtracks)
	}
}

// tick counts one examined candidate and polls cancel on the first
// and then every cancelEvery candidates; it reports whether the search
// must stop.
func (e *exec) tick() bool {
	e.cands++
	if e.cancel != nil && e.cands%cancelEvery == 1 {
		select {
		case <-e.cancel:
			e.cancelled, e.stopped = true, true
		default:
		}
	}
	return e.stopped
}

// step matches atoms[i:] under the current bindings and reports whether
// some extension reached the last atom. At split the answer row is
// complete: a row already found is not searched again (step reports
// true; only levels below split see that, and they ignore it), and a
// new one is recorded once the existential atoms have a witness.
func (e *exec) step(i int) bool {
	if i != e.p.split {
		return e.extend(i)
	}
	for k, s := range e.p.out {
		if s >= 0 {
			e.row[k] = e.b[s]
		}
	}
	if e.ans.has(e.row) {
		return true
	}
	if !e.extend(i) {
		return false
	}
	e.ans.add(e.row)
	if len(e.p.out) == 0 {
		e.stopped = true // the one possible answer is found
	}
	return true
}

// extend tries every candidate row of atom i. Below split the search is
// exhaustive; from split on it returns at the first success.
func (e *exec) extend(i int) bool {
	if i == len(e.p.atoms) {
		return true
	}
	a := &e.p.atoms[i]
	if a.probe {
		if e.tick() {
			return false
		}
		key := e.key[:a.arity]
		for pos := range key {
			key[pos] = e.value(a, pos)
		}
		if !symtab.ContainsRow(e.sorted[i], a.arity, key) {
			e.backtracks++
			return false
		}
		return e.step(i + 1)
	}
	rel := e.rels[i]
	lo, hi, sel := 0, rel.Rows(), -1
	for _, pos := range a.pinned {
		if l, h := rel.Range(int(pos), e.value(a, int(pos))); h-l < hi-lo {
			lo, hi, sel = l, h, int(pos)
		}
	}
	found := false
	for k := lo; k < hi; k++ {
		if e.tick() {
			return false
		}
		r := k
		if sel >= 0 {
			r = rel.RowAt(sel, k)
		}
		if !e.match(a, rel.Row(r)) {
			e.backtracks++
			continue
		}
		if e.step(i + 1) {
			found = true
			if i >= e.p.split {
				return true
			}
		}
		if e.stopped {
			return false
		}
	}
	return found
}

// value is the id a pinned position must hold.
func (e *exec) value(a *patom, pos int) symtab.ID {
	if s := a.slot[pos]; s >= 0 {
		return e.b[s]
	}
	return e.cid[a.cst[pos]]
}

// match checks row against atom a, binding the slots a binds. Positions
// are visited in order, so a variable repeated inside the atom is bound
// at its first position and checked at the later ones.
func (e *exec) match(a *patom, row []symtab.ID) bool {
	for pos, id := range row {
		s := a.slot[pos]
		switch {
		case s < 0:
			if e.cid[a.cst[pos]] != id {
				return false
			}
		case a.bind[pos]:
			e.b[s] = id
		case e.b[s] != id:
			return false
		}
	}
	return true
}

// answers de-interns the distinct answer rows, one backing array for
// all tuples.
func (e *exec) answers(tab *symtab.Table) [][]term.Term {
	n, w := e.ans.n, len(e.p.out)
	out := make([][]term.Term, n)
	flat := make([]term.Term, n*w)
	for k := 0; k < n; k++ {
		tup := flat[k*w : (k+1)*w : (k+1)*w]
		row := e.ans.row(k)
		for i, s := range e.p.out {
			if s < 0 {
				tup[i] = e.p.free[i]
				continue
			}
			//semalint:allow internleak(answer materialization at the string boundary)
			tup[i] = tab.Term(row[i])
		}
		out[k] = tup
	}
	return out
}

// answerSet is an insertion-ordered set of id rows of width w: the rows
// lie back to back in one slice and an open-addressing table of row
// numbers dedupes them, so adding a row allocates nothing beyond
// amortized growth.
type answerSet struct {
	w     int
	n     int
	rows  []symtab.ID
	table []int32 // row number + 1; 0 marks a free slot
}

func (s *answerSet) row(k int) []symtab.ID { return s.rows[k*s.w : (k+1)*s.w] }

func hashRow(row []symtab.ID) uint64 {
	h := uint64(len(row))
	for _, id := range row {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>29
}

// find returns the table index holding row, or the free index where it
// would go. The table is never more than half full, so a free index
// always exists.
func (s *answerSet) find(row []symtab.ID) (int, bool) {
	mask := len(s.table) - 1
	i := int(hashRow(row) & uint64(mask))
	for probes := 0; probes < len(s.table); probes++ {
		k := s.table[i]
		if k == 0 {
			return i, false
		}
		if equalRow(s.row(int(k-1)), row) {
			return i, true
		}
		i = (i + 1) & mask
	}
	panic("hom: answer table full") // unreachable: add keeps it half empty
}

func (s *answerSet) has(row []symtab.ID) bool {
	if s.n == 0 {
		return false
	}
	_, ok := s.find(row)
	return ok
}

// add inserts a row known to be absent.
func (s *answerSet) add(row []symtab.ID) {
	if 2*(s.n+1) > len(s.table) {
		s.grow()
	}
	i, _ := s.find(row)
	s.rows = append(s.rows, row...)
	s.n++
	s.table[i] = int32(s.n)
}

func (s *answerSet) grow() {
	s.table = make([]int32, max(16, 2*len(s.table)))
	for k := 0; k < s.n; k++ {
		i, _ := s.find(s.row(k))
		s.table[i] = int32(k + 1)
	}
}

func equalRow(a, b []symtab.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
