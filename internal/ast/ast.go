// Package ast defines the abstract syntax of Transaction Datalog programs:
// goal formulas built from elementary database operations with sequential
// composition (⊗, written ","), concurrent composition ("|"), and isolation
// ("iso(...)"); rules defining derived predicates; and whole programs.
//
// The representation mirrors the syntax of Bonner's PODS'99 paper. Plain
// atoms are parsed as Call nodes; Program.Analyze resolves atoms over
// predicates that have no rules into Query nodes (elementary tuple tests).
package ast

import (
	"fmt"
	"strings"

	"repro/internal/term"
)

// Pos is a source position: 1-based line and column of the token that
// started a node. The zero Pos marks nodes built programmatically rather
// than by the parser.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p carries a real source position.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// PosError is a program-validation error anchored to the source position of
// the offending construct. Programmatically built programs (zero Pos) fall
// back to the bare message.
type PosError struct {
	Pos Pos
	Msg string
}

func (e *PosError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
	}
	return e.Msg
}

// Goal is a TD goal formula (the body of a rule, or a top-level transaction
// invocation).
type Goal interface {
	fmt.Stringer
	isGoal()
}

// True is the empty goal; it always succeeds without touching the database.
type True struct{}

// AtomOp distinguishes the elementary and call forms that carry an atom.
type AtomOp uint8

// Atom goal operations.
const (
	OpCall  AtomOp = iota // invocation of a derived (rule-defined) predicate
	OpQuery               // membership test against a base relation
	OpIns                 // elementary insertion ins.p(t̄)
	OpDel                 // elementary deletion del.p(t̄)
)

func (op AtomOp) String() string {
	switch op {
	case OpCall:
		return "call"
	case OpQuery:
		return "query"
	case OpIns:
		return "ins"
	case OpDel:
		return "del"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Lit is an atomic goal: a call, query, insertion, or deletion.
type Lit struct {
	Op   AtomOp
	Atom term.Atom
	Pos  Pos
}

// Empty is the emptiness test empty.p: it succeeds iff relation p holds no
// tuples. It is TD's bounded form of negation on base relations.
type Empty struct {
	Pred string
	Pos  Pos
}

// Builtin is an evaluable predicate over constants: comparisons
// (lt, le, gt, ge, eq, neq) and arithmetic (add, sub, mul, div with the last
// argument as output). Builtins never touch the database.
type Builtin struct {
	Name string
	Args []term.Term
	Pos  Pos
}

// Seq is sequential composition: execute Goals left to right, threading the
// database through.
type Seq struct {
	Goals []Goal
}

// Conc is concurrent composition: Goals execute concurrently, interleaving
// their elementary operations; all must succeed on the same execution path.
type Conc struct {
	Goals []Goal
}

// Iso is the isolation modality ⊙G: G executes with no interleaving from
// sibling processes — atomically, as far as the rest of the goal can tell.
type Iso struct {
	Body Goal
	Pos  Pos
}

func (True) isGoal()     {}
func (*Lit) isGoal()     {}
func (*Empty) isGoal()   {}
func (*Builtin) isGoal() {}
func (*Seq) isGoal()     {}
func (*Conc) isGoal()    {}
func (*Iso) isGoal()     {}

func (True) String() string { return "true" }

func (l *Lit) String() string {
	switch l.Op {
	case OpIns:
		return "ins." + l.Atom.String()
	case OpDel:
		return "del." + l.Atom.String()
	default:
		return l.Atom.String()
	}
}

func (e *Empty) String() string { return "empty." + e.Pred }

func (b *Builtin) String() string {
	if sym, ok := infixSymbols[b.Name]; ok && len(b.Args) == 2 {
		return b.Args[0].String() + " " + sym + " " + b.Args[1].String()
	}
	parts := make([]string, len(b.Args))
	for i, a := range b.Args {
		parts[i] = a.String()
	}
	return b.Name + "(" + strings.Join(parts, ", ") + ")"
}

var infixSymbols = map[string]string{
	"lt": "<", "le": "=<", "gt": ">", "ge": ">=", "eq": "==", "neq": "!=",
}

func (s *Seq) String() string {
	parts := make([]string, len(s.Goals))
	for i, g := range s.Goals {
		if _, ok := g.(*Conc); ok {
			parts[i] = "(" + g.String() + ")"
		} else {
			parts[i] = g.String()
		}
	}
	return strings.Join(parts, ", ")
}

func (c *Conc) String() string {
	parts := make([]string, len(c.Goals))
	for i, g := range c.Goals {
		parts[i] = g.String()
	}
	return strings.Join(parts, " | ")
}

func (i *Iso) String() string { return "iso(" + i.Body.String() + ")" }

// NewSeq flattens nested sequences and drops True units; it returns True for
// an empty sequence and the goal itself for a singleton.
func NewSeq(goals ...Goal) Goal {
	flat := make([]Goal, 0, len(goals))
	for _, g := range goals {
		flat = appendSeq(flat, g)
	}
	return seqOf(flat)
}

// ConsSeq is NewSeq(head, rest...) with at most one slice allocation. When
// head is True and rest needs no flattening, the result shares rest, which
// the caller must not modify afterwards.
func ConsSeq(head Goal, rest []Goal) Goal {
	if _, done := head.(True); done && isFlatSeq(rest) {
		return seqOf(rest[:len(rest):len(rest)])
	}
	n := len(rest) + 1
	if s, ok := head.(*Seq); ok {
		n += len(s.Goals) - 1
	}
	flat := appendSeq(make([]Goal, 0, n), head)
	for _, g := range rest {
		flat = appendSeq(flat, g)
	}
	return seqOf(flat)
}

// appendSeq appends g to a flat sequence: a nested Seq is spliced in and
// True, the unit of ⊗, is dropped.
func appendSeq(flat []Goal, g Goal) []Goal {
	switch g := g.(type) {
	case True:
		return flat
	case *Seq:
		return append(flat, g.Goals...)
	}
	return append(flat, g)
}

// isFlatSeq reports whether appendSeq would keep every goal as it is.
func isFlatSeq(goals []Goal) bool {
	for _, g := range goals {
		switch g.(type) {
		case True, *Seq:
			return false
		}
	}
	return true
}

// seqOf wraps a flat sequence: True when empty, the goal itself when alone.
func seqOf(flat []Goal) Goal {
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	}
	return &Seq{Goals: flat}
}

// NewConc flattens nested concurrent compositions and drops True units.
func NewConc(goals ...Goal) Goal {
	flat := make([]Goal, 0, len(goals))
	for _, g := range goals {
		switch g := g.(type) {
		case True:
			// unit of |
		case *Conc:
			flat = append(flat, g.Goals...)
		default:
			flat = append(flat, g)
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	}
	return &Conc{Goals: flat}
}

// Walk calls f on g and then on every subgoal, pre-order. If f returns
// false the subtree below g is skipped.
func Walk(g Goal, f func(Goal) bool) {
	if !f(g) {
		return
	}
	switch g := g.(type) {
	case *Seq:
		for _, sub := range g.Goals {
			Walk(sub, f)
		}
	case *Conc:
		for _, sub := range g.Goals {
			Walk(sub, f)
		}
	case *Iso:
		Walk(g.Body, f)
	}
}

// Vars appends the distinct variables of g to dst in first-occurrence order.
func Vars(g Goal, dst []term.Term) []term.Term {
	Walk(g, func(sub Goal) bool {
		switch sub := sub.(type) {
		case *Lit:
			dst = sub.Atom.Vars(dst)
		case *Builtin:
			dst = term.Atom{Pred: sub.Name, Args: sub.Args}.Vars(dst)
		}
		return true
	})
	return dst
}

// Rename returns a copy of g with every variable renamed through rn.
// Shared structure without variables is reused. Source positions are
// preserved on the copies.
func Rename(g Goal, rn *term.Renaming) Goal {
	switch g := g.(type) {
	case True:
		return g
	case *Lit:
		return &Lit{Op: g.Op, Atom: rn.Atom(g.Atom), Pos: g.Pos}
	case *Empty:
		return g
	case *Builtin:
		args := make([]term.Term, len(g.Args))
		for i, a := range g.Args {
			args[i] = rn.Term(a)
		}
		return &Builtin{Name: g.Name, Args: args, Pos: g.Pos}
	case *Seq:
		goals := make([]Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = Rename(sub, rn)
		}
		return &Seq{Goals: goals}
	case *Conc:
		goals := make([]Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = Rename(sub, rn)
		}
		return &Conc{Goals: goals}
	case *Iso:
		return &Iso{Body: Rename(g.Body, rn), Pos: g.Pos}
	default:
		panic(fmt.Sprintf("ast: Rename: unknown goal %T", g))
	}
}
