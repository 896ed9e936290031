package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/machine"
	"repro/internal/parser"
)

// paperConstruction is one of the paper's complexity constructions: a
// program and its goal.
type paperConstruction struct {
	name string
	src  string
	goal string
}

// paperConstructions returns the Thm 4.4 two-stack machine copying
// ABWord(8), the Thm 4.5 program on AlternatingQBF(3), and the Sec. 5
// fully bounded SAT program on an unsatisfiable random 3-CNF (n=8, m=34).
func paperConstructions(t testing.TB) []paperConstruction {
	t.Helper()
	copySrc, copyGoal, err := machine.Source(machine.Copy(), machine.ABWord(8))
	if err != nil {
		t.Fatal(err)
	}
	qbfFacts, err := machine.QBFFacts(machine.AlternatingQBF(3))
	if err != nil {
		t.Fatal(err)
	}
	satFacts, err := machine.SATFacts(machine.RandomCNF(rand.New(rand.NewSource(1)), 8, 34, 3))
	if err != nil {
		t.Fatal(err)
	}
	return []paperConstruction{
		{"twostack", copySrc, copyGoal},
		{"qbf", machine.QBFRules + qbfFacts, machine.QBFGoal},
		{"sat", machine.SATRules + satFacts, machine.SATGoal},
	}
}

// load parses pc and returns a default engine, the goal, and a factory for
// fresh copies of the program's database.
func (pc paperConstruction) load(t testing.TB) (*Engine, ast.Goal, func() *db.DB) {
	t.Helper()
	prog := parser.MustParse(pc.src)
	goal := parser.MustParseGoal(pc.goal, prog.VarHigh)
	fresh := func() *db.DB {
		d, err := db.FromFacts(prog.Facts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return NewDefault(prog), goal, fresh
}

// TestSearchCountersPinned pins the search tree of the paper's deep
// constructions (Thm 4.4 two-stack copy, Thm 4.5 QBF, Sec. 5 SAT): the
// derivation step's bookkeeping (binding slots, rewound renaming, lazy
// trace entries) may change how fast a step runs, never which steps run.
func TestSearchCountersPinned(t *testing.T) {
	want := map[string]Stats{
		"twostack": {Steps: 1346, Unifications: 335, TableHits: 96, MaxDepth: 251},
		"qbf":      {Steps: 1092, Unifications: 360, TableHits: 12, MaxDepth: 344},
		"sat":      {Steps: 19681, Unifications: 5612, TableHits: 1068, MaxDepth: 169},
	}
	for _, pc := range paperConstructions(t) {
		e, goal, fresh := pc.load(t)
		res, err := e.Prove(goal, fresh())
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		got := Stats{Steps: res.Stats.Steps, Unifications: res.Stats.Unifications,
			TableHits: res.Stats.TableHits, LoopHits: res.Stats.LoopHits, MaxDepth: res.Stats.MaxDepth}
		if got != want[pc.name] {
			t.Errorf("%s: got %+v, want %+v", pc.name, got, want[pc.name])
		}
	}
}

// TestProveSATAllocs guards the untraced derivation step's allocations on
// the SAT construction (19 681 steps): only residual-goal rebuilds and
// their closures, renamed rule bodies, database scans and inserts
// allocate — no bindings map, no renaming map, no renamed head and no
// trace entry. A Prove measures 67 476 allocations; the bound leaves under
// 1% of slack.
func TestProveSATAllocs(t *testing.T) {
	pc := paperConstructions(t)[2]
	e, goal, fresh := pc.load(t)
	d := fresh()
	// The instance is unsatisfiable, so every Prove rolls d back and the
	// next one starts from the same database.
	if res, err := e.Prove(goal, d); err != nil || res.Success { // warms the deriv pool
		t.Fatalf("SAT instance: success=%v err=%v, want an unsatisfiable instance", res != nil && res.Success, err)
	}
	n := testing.AllocsPerRun(5, func() {
		if _, err := e.Prove(goal, d); err != nil {
			panic(err)
		}
	})
	if n > 68000 {
		t.Errorf("untraced SAT Prove: %v allocs/op, want <= 68000", n)
	}
}

// formatTrace renders a trace one entry per line: op, resolved atom,
// branch path, step count and memo annotation.
func formatTrace(b *strings.Builder, tr []TraceEntry) {
	for _, te := range tr {
		fmt.Fprintf(b, "  %s %s path=%v steps=%d memo=%d\n", te.Op, te.Atom, te.Path, te.Steps, te.Memo)
	}
}

// TestTraceGolden checks that traced search records exactly the trace it
// recorded before untraced search stopped building entries: every
// "?-" goal of testdata/*.td, proved with Trace on, against a golden file.
func TestTraceGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.td"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	var b strings.Builder
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(string(src))
		opts := DefaultOptions()
		opts.Trace = true
		e := New(prog, opts)
		for _, q := range prog.Queries {
			d, err := db.FromFacts(prog.Facts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Prove(q, d)
			if err != nil {
				t.Fatalf("%s: %s: %v", f, q, err)
			}
			fmt.Fprintf(&b, "%s ?- %s success=%v steps=%d\n", filepath.Base(f), q, res.Success, res.Stats.Steps)
			formatTrace(&b, res.Trace)
		}
	}
	golden := filepath.Join("testdata", "traces.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("traces differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
