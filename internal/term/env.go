package term

import "math"

// Env is a binding environment: a mutable map from variable ids to terms,
// with a trail that supports O(1) marking and O(changes) undo. The engine
// uses a single Env per derivation and rewinds it on backtracking.
//
// Variables with ids in [base, base+MaxDense) — the fresh variables a
// derivation's Renamer hands out — are bound in a slice indexed by
// id − base, so the search's hottest lookups touch no map. Every other id
// (source and goal variables, or any id before SetBase is called) is
// bound in a map.
//
// Bindings may form var→var chains; Walk resolves them. Env performs no
// occurs check: the language is function-free, so cyclic bindings other than
// benign var→var self-unifications cannot arise.
type Env struct {
	base  int64
	dense []binding
	far   map[int64]Term
	trail []int64
}

// binding is one dense slot. The bound flag is kept apart from the term:
// no Term value is free to serve as an "unbound" marker.
type binding struct {
	t     Term
	bound bool
}

// MaxDense bounds the id range an Env (or a Slots table) indexes directly;
// ids past it fall back to the map, so a stray large id cannot force a huge
// slice.
const MaxDense = 1 << 20

// noBase places every id in the map: id − math.MaxInt64 is never in
// [0, MaxDense) as an unsigned offset.
const noBase = math.MaxInt64

// NewEnv returns an empty environment that binds every variable in a map
// until SetBase gives it a dense range.
func NewEnv() *Env { return &Env{base: noBase} }

// SetBase empties the environment and binds variables with ids in
// [base, base+MaxDense) densely from now on (see Env).
func (e *Env) SetBase(base int64) {
	e.Reset()
	e.base = base
}

// Len returns the number of bound variables. Only unbound variables are
// ever bound, and each binding is trailed once, so this is the trail length.
func (e *Env) Len() int { return len(e.trail) }

// Reset removes every binding and empties the trail, keeping allocated
// capacity so a pooled environment can be reused without reallocating.
func (e *Env) Reset() {
	e.Undo(0)
	clear(e.far)
}

// Walk resolves t through the current bindings until it reaches a constant
// or an unbound variable.
func (e *Env) Walk(t Term) Term {
	for t.kind == Var {
		if i := uint64(t.num - e.base); i < MaxDense {
			if i >= uint64(len(e.dense)) || !e.dense[i].bound {
				return t
			}
			t = e.dense[i].t
			continue
		}
		u, ok := e.far[t.num]
		if !ok {
			return t
		}
		t = u
	}
	return t
}

// Mark returns a position in the trail; passing it to Undo removes every
// binding made since.
func (e *Env) Mark() int { return len(e.trail) }

// Undo rewinds the environment to a previous Mark.
func (e *Env) Undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		id := e.trail[i]
		if j := uint64(id - e.base); j < MaxDense {
			e.dense[j] = binding{}
		} else {
			delete(e.far, id)
		}
	}
	e.trail = e.trail[:mark]
}

// bindVar records id ↦ t.
func (e *Env) bindVar(id int64, t Term) {
	if i := uint64(id - e.base); i < MaxDense {
		if i >= uint64(len(e.dense)) {
			e.dense = append(e.dense, make([]binding, int(i)+1-len(e.dense))...)
		}
		e.dense[i] = binding{t: t, bound: true}
	} else {
		if e.far == nil {
			e.far = make(map[int64]Term)
		}
		e.far[id] = t
	}
	e.trail = append(e.trail, id)
}

// Bind makes variable v refer to t (after walking both). It reports whether
// binding succeeded; binding fails only when both sides walk to distinct
// constants.
func (e *Env) Bind(v, t Term) bool { return e.Unify(v, t) }

// Unify attempts to unify a and b under the current bindings, extending the
// environment on success. On failure the environment is left unchanged
// (unification of flat terms makes at most one binding).
func (e *Env) Unify(a, b Term) bool {
	a = e.Walk(a)
	b = e.Walk(b)
	if a.IsVar() {
		if b.IsVar() && a.VarID() == b.VarID() {
			return true
		}
		e.bindVar(a.VarID(), b)
		return true
	}
	if b.IsVar() {
		e.bindVar(b.VarID(), a)
		return true
	}
	return a.Equal(b)
}

// UnifyAtoms unifies two atoms. On failure every binding made during the
// attempt is undone.
func (e *Env) UnifyAtoms(a, b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	return e.UnifyArgs(a.Args, b.Args)
}

// UnifyRenamed unifies head, renamed through rn, with call — the same
// bindings as UnifyAtoms(rn.Atom(head), call) without building the renamed
// atom. Arguments are renamed one at a time as they are unified, so a head
// that fails to unify allocates nothing. On failure every binding made
// during the attempt is undone; rn may have handed out fresh variables.
func (e *Env) UnifyRenamed(head Atom, rn *Renaming, call Atom) bool {
	if head.Pred != call.Pred || len(head.Args) != len(call.Args) {
		return false
	}
	mark := e.Mark()
	for i, t := range head.Args {
		if !e.Unify(rn.Term(t), call.Args[i]) {
			e.Undo(mark)
			return false
		}
	}
	return true
}

// UnifyArgs unifies the argument vector args against the ground tuple row
// (same length assumed). On failure the environment is rewound.
func (e *Env) UnifyArgs(args, row []Term) bool {
	mark := e.Mark()
	for i := range args {
		if !e.Unify(args[i], row[i]) {
			e.Undo(mark)
			return false
		}
	}
	return true
}

// Resolve returns t with all bindings applied (terms are flat, so this is a
// single Walk).
func (e *Env) Resolve(t Term) Term { return e.Walk(t) }

// ResolveAtom returns a copy of a with every argument walked.
func (e *Env) ResolveAtom(a Atom) Atom {
	return Atom{Pred: a.Pred, Args: e.ResolveArgs(a.Args)}
}

// ResolveArgs returns a new slice with each term walked.
func (e *Env) ResolveArgs(args []Term) []Term {
	out := make([]Term, len(args))
	for i, t := range args {
		out[i] = e.Walk(t)
	}
	return out
}

// IsGroundAtom reports whether a resolves to a ground atom under e.
func (e *Env) IsGroundAtom(a Atom) bool {
	for _, t := range a.Args {
		if e.Walk(t).IsVar() {
			return false
		}
	}
	return true
}
