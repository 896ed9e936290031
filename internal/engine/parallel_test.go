package engine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/term"
)

func TestProveParBasics(t *testing.T) {
	prog := parser.MustParse(`
		account(alice, 100).
		t :- account(alice, B), del.account(alice, B), sub(B, 30, C), ins.account(alice, C).
	`)
	g := parser.MustParseGoal("t", prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res, err := NewDefault(prog).ProvePar(g, d, 4)
	if err != nil || !res.Success {
		t.Fatal(err, res)
	}
	if !d.Contains("account", []term.Term{term.NewSym("alice"), term.NewInt(70)}) {
		t.Fatalf("final db wrong:\n%s", d)
	}
}

func TestProveParFailureRollsBack(t *testing.T) {
	prog := parser.MustParse(`
		t :- ins.a, nosuch(x).
		t :- ins.b, nosuch(y).
	`)
	g := parser.MustParseGoal("t", prog.VarHigh)
	d := db.New()
	d.Insert("seed", nil)
	d.ResetTrail()
	res, err := NewDefault(prog).ProvePar(g, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("false success")
	}
	if d.Size() != 1 || !d.Contains("seed", nil) {
		t.Fatalf("db not restored:\n%s", d)
	}
}

func TestProveParBindings(t *testing.T) {
	// X bound at the FIRST step (query), and Y bound deeper: both must
	// appear in the answer.
	prog := parser.MustParse(`
		p(a). q(a, b1).
	`)
	g := parser.MustParseGoal("p(X), q(X, Y), ins.out(X, Y)", prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res, err := NewDefault(prog).ProvePar(g, d, 2)
	if err != nil || !res.Success {
		t.Fatal(err, res)
	}
	if !res.Bindings["X"].Equal(term.NewSym("a")) || !res.Bindings["Y"].Equal(term.NewSym("b1")) {
		t.Fatalf("bindings = %v", res.Bindings)
	}
}

func TestProveParTrivialGoals(t *testing.T) {
	prog := parser.MustParse(``)
	d := db.New()
	res, err := NewDefault(prog).ProvePar(parser.MustParseGoal("true", prog.VarHigh), d, 2)
	if err != nil || !res.Success {
		t.Fatal("true failed under ProvePar")
	}
	res2, err := NewDefault(prog).ProvePar(parser.MustParseGoal("nosuch(x)", prog.VarHigh), d, 2)
	if err != nil || res2.Success {
		t.Fatal("impossible goal succeeded")
	}
}

func TestProveParIsoFirstStep(t *testing.T) {
	// The first step is an iso macro-step; successors must be collected
	// after complete body executions, not inside them.
	prog := parser.MustParse(`
		pickone :- item(X), del.item(X), ins.got(X).
		item(a). item(b).
	`)
	g := parser.MustParseGoal("iso(pickone), ins.done", prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res, err := NewDefault(prog).ProvePar(g, d, 4)
	if err != nil || !res.Success {
		t.Fatal(err, res)
	}
	if !d.Contains("done", nil) || d.Count("got", 1) != 1 {
		t.Fatalf("final db wrong:\n%s", d)
	}
}

func TestProveParSharedBudget(t *testing.T) {
	prog := parser.MustParse(`
		spin :- ins.tok, del.tok, spin.
		both :- spin | spin.
	`)
	g := parser.MustParseGoal("both", prog.VarHigh)
	d := db.New()
	e := New(prog, Options{MaxSteps: 2_000, MaxDepth: 1_000_000})
	_, err := e.ProvePar(g, d, 4)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want shared ErrBudget", err)
	}
}

// Property: ProvePar agrees with Prove on success/failure for random
// generated programs (same generator as the soak tests).
func TestProveParAgreesWithProve(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-adjacent")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		prog, err := parser.Parse(src)
		if err != nil {
			return false
		}
		g, _, err := parser.ParseGoal("r0", prog.VarHigh)
		if err != nil {
			return false
		}
		opts := Options{MaxSteps: 25_000, MaxDepth: 4_000, LoopCheck: true, Table: true}

		d1, _ := db.FromFacts(prog.Facts)
		r1, err1 := New(prog, opts).Prove(g, d1)
		d2, _ := db.FromFacts(prog.Facts)
		r2, err2 := New(prog, opts).ProvePar(g, d2, 4)

		if err1 != nil || err2 != nil {
			// Budget exhaustion can differ between strategies (work is
			// split differently) — only compare clean completions.
			return true
		}
		if r1.Success != r2.Success {
			t.Logf("seed %d: Prove=%v ProvePar=%v\n%s", seed, r1.Success, r2.Success, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// TestProveParWorkerFreshIDs is a regression test: a worker must number its
// fresh variables above every variable its successor tree already holds.
// Here the first step renames p's body to a(X'), b(Y'), c(X', Y'); a worker
// that restarted numbering where the collector began would give a's rule
// variables the ids of X' and Y', binding Y' to 1 through h(W, X) and
// failing b(Y') although the goal is provable.
func TestProveParWorkerFreshIDs(t *testing.T) {
	prog := parser.MustParse(`
		h(1, 5). b(2). c(5, 2).
		a(X) :- h(W, X).
		p :- a(X), b(Y), c(X, Y).
	`)
	g := parser.MustParseGoal("p", prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	if res, err := NewDefault(prog).Prove(g, d); err != nil || !res.Success {
		t.Fatalf("Prove: success=%v err=%v, want success", res != nil && res.Success, err)
	}
	// A fresh engine: ProvePar's collector and worker both start from an
	// empty pool.
	d, _ = db.FromFacts(prog.Facts)
	res, err := NewDefault(prog).ProvePar(g, d, 1)
	if err != nil || !res.Success {
		t.Fatalf("ProvePar: success=%v err=%v, want success", res != nil && res.Success, err)
	}
}
