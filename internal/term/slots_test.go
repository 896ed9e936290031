package term

import (
	"math"
	"math/rand"
	"testing"
)

// refEnv is the map-only binding environment Env replaced: the reference
// the dense-slot environment is checked against.
type refEnv struct {
	bind  map[int64]Term
	trail []int64
}

func (r *refEnv) walk(t Term) Term {
	for t.IsVar() {
		u, ok := r.bind[t.VarID()]
		if !ok {
			return t
		}
		t = u
	}
	return t
}

func (r *refEnv) unify(a, b Term) bool {
	a, b = r.walk(a), r.walk(b)
	switch {
	case a.IsVar() && b.IsVar() && a.VarID() == b.VarID():
		return true
	case a.IsVar():
		r.bind[a.VarID()] = b
		r.trail = append(r.trail, a.VarID())
		return true
	case b.IsVar():
		r.bind[b.VarID()] = a
		r.trail = append(r.trail, b.VarID())
		return true
	}
	return a.Equal(b)
}

func (r *refEnv) undo(mark int) {
	for i := len(r.trail) - 1; i >= mark; i-- {
		delete(r.bind, r.trail[i])
	}
	r.trail = r.trail[:mark]
}

// TestEnvMatchesMapReference drives random Bind/Unify/Mark/Undo/Reset
// sequences over variable ids on both sides of the dense base (and past
// the dense range) and compares every Walk and Len with refEnv.
func TestEnvMatchesMapReference(t *testing.T) {
	const base = 1000
	ids := []int64{0, 3, base - 2, base - 1, base, base + 1, base + 2, base + 7, base + 40, base + MaxDense, base + MaxDense + 5}
	consts := []Term{NewSym("a"), NewSym("b"), NewInt(1), NewInt(2), NewStr(""), NewSym("")}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, ref := NewEnv(), &refEnv{bind: map[int64]Term{}}
		if seed%5 != 0 { // every fifth environment has no dense range
			e.SetBase(base)
		}
		var marks []int
		pick := func() Term {
			if rng.Intn(3) == 0 {
				return consts[rng.Intn(len(consts))]
			}
			id := ids[rng.Intn(len(ids))]
			return NewVar("V", id)
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				a, b := pick(), pick()
				var got bool
				if op == 0 {
					got = e.Bind(a, b)
				} else {
					got = e.Unify(a, b)
				}
				if want := ref.unify(a, b); got != want {
					t.Fatalf("seed %d step %d: Unify(%v, %v) = %v, reference %v", seed, step, a, b, got, want)
				}
			case op < 7:
				if m := e.Mark(); m != len(ref.trail) {
					t.Fatalf("seed %d step %d: Mark = %d, reference %d", seed, step, m, len(ref.trail))
				}
				marks = append(marks, e.Mark())
			case op < 9:
				if len(marks) > 0 {
					m := marks[len(marks)-1]
					marks = marks[:len(marks)-1]
					e.Undo(m)
					ref.undo(m)
				}
			default:
				if rng.Intn(4) == 0 {
					e.Reset()
					ref.undo(0)
					marks = marks[:0]
				}
			}
			if e.Len() != len(ref.bind) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, e.Len(), len(ref.bind))
			}
			for _, id := range ids {
				v := NewVar("V", id)
				if got, want := e.Walk(v), ref.walk(v); got != want {
					t.Fatalf("seed %d step %d: Walk(%v) = %v, reference %v", seed, step, v, got, want)
				}
			}
		}
	}
}

// TestEnvEmptySymbolIsABinding checks that the symbol with the empty name
// binds like any constant: the dense slots' bound flag, not the stored
// term, says whether a variable is bound.
func TestEnvEmptySymbolIsABinding(t *testing.T) {
	e := NewEnv()
	e.SetBase(10)
	v, empty := NewVar("X", 12), NewSym("")
	if !e.Bind(v, empty) {
		t.Fatal("binding to the empty symbol failed")
	}
	if got := e.Walk(v); got != empty {
		t.Fatalf("Walk = %v, want the empty symbol", got)
	}
	if e.Unify(v, NewSym("a")) {
		t.Fatal("a variable bound to the empty symbol unified with another constant")
	}
}

// TestSlotsClear checks that Clear forgets every id, dense and far, and
// that a wrapped generation counter cannot revive entries from 2³²
// generations earlier.
func TestSlotsClear(t *testing.T) {
	s := NewSlots[int](100)
	ids := []int64{5, 100, 101, 163, 100 + MaxDense}
	for i, id := range ids {
		s.Put(id, i)
	}
	for i, id := range ids {
		if v, ok := s.Get(id); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", id, v, ok, i)
		}
	}
	s.Clear()
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			t.Fatalf("Get(%d) found an entry after Clear", id)
		}
	}

	// Entries written in generation 1 must not read as current after the
	// counter wraps back around to 1.
	s = NewSlots[int](100)
	for _, id := range ids {
		s.Put(id, 7)
	}
	s.gen = math.MaxUint32
	s.Clear()
	if s.gen != 1 {
		t.Fatalf("generation after wraparound = %d, want 1", s.gen)
	}
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			t.Fatalf("Get(%d) found a pre-wraparound entry", id)
		}
	}

	s.SetBase(1000)
	s.Put(1000, 3)
	if _, ok := s.Get(100); ok {
		t.Fatal("SetBase kept an entry")
	}
	if v, ok := s.Get(1000); !ok || v != 3 {
		t.Fatalf("Get(1000) after SetBase = %d, %v; want 3, true", v, ok)
	}
}

// TestRenamerRewind checks that a rewound renamer reissues ids from the
// rewind point and that a reset renaming renames afresh.
func TestRenamerRewind(t *testing.T) {
	r := NewRenamer(50)
	rn := r.NewRenaming()
	x := NewVar("X", 3)
	high := r.High()
	a := rn.Term(x)
	if rn.Term(x) != a {
		t.Fatal("renaming is not consistent within one activation")
	}
	r.Rewind(high)
	rn.Reset()
	if b := rn.Term(x); b != a || b.VarName() != "X" {
		t.Fatalf("after Rewind and Reset: %v (id %d), want id %d", b, b.VarID(), a.VarID())
	}
	if r.High() != high+1 {
		t.Fatalf("High = %d, want %d", r.High(), high+1)
	}
}
