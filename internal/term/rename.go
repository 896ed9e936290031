package term

import "sync/atomic"

// Renamer allocates fresh variable ids. A single Renamer is shared by a
// derivation (or a whole engine); it is safe for concurrent use.
type Renamer struct {
	next atomic.Int64
}

// NewRenamer returns a Renamer whose first fresh id is start. Parsers
// typically number source variables from 0 upward, so engines seed renamers
// with a large offset (or with the parser's high-water mark).
func NewRenamer(start int64) *Renamer {
	r := &Renamer{}
	r.next.Store(start)
	return r
}

// Fresh returns a brand-new variable carrying the given display name.
func (r *Renamer) Fresh(name string) Term {
	return NewVar(name, r.next.Add(1)-1)
}

// High returns the next id that would be allocated.
func (r *Renamer) High() int64 { return r.next.Load() }

// Rewind makes high the next id to allocate, so ids handed out since High
// returned high are issued again. A depth-first search rewinds when it
// backtracks past the point where it read High: no variable from the
// abandoned branch is live any more, and fresh ids stay as few as the
// variables on the current path.
func (r *Renamer) Rewind(high int64) { r.next.Store(high) }

// Renaming maps the variables of one rule instance to fresh variables,
// so that distinct rule activations never share variables. It is indexed
// by source-variable id through a Slots table, so Reset is O(1).
type Renaming struct {
	r *Renamer
	m *Slots[Term]
}

// NewRenaming returns an empty renaming drawing fresh ids from r.
func (r *Renamer) NewRenaming() *Renaming {
	return &Renaming{r: r, m: NewSlots[Term](0)}
}

// Reset empties the renaming so it can be reused for the next rule
// activation. Callers pool one Renaming per derivation instead of
// allocating one per candidate clause; see the engine's call step.
func (rn *Renaming) Reset() { rn.m.Clear() }

// Term returns the renamed version of t (constants are returned unchanged;
// each distinct variable is mapped to one fresh variable).
func (rn *Renaming) Term(t Term) Term {
	if !t.IsVar() {
		return t
	}
	if u, ok := rn.m.Get(t.num); ok {
		return u
	}
	u := rn.r.Fresh(t.str)
	rn.m.Put(t.num, u)
	return u
}

// Atom returns a with every argument renamed.
func (rn *Renaming) Atom(a Atom) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = rn.Term(t)
	}
	return out
}
