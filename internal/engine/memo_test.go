package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
)

// memoSetup builds an engine with tabling on (Mode "all" unless overridden)
// and the program's fact database.
func memoSetup(t *testing.T, src string, memo *MemoOptions) (*Engine, *db.DB) {
	t.Helper()
	prog := parser.MustParse(src)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	if memo == nil {
		memo = &MemoOptions{Mode: "all"}
	}
	opts := DefaultOptions()
	opts.Memo = memo
	return New(prog, opts), d
}

// solutionsKey flattens an answer multiset into sorted strings for
// multiset comparison.
func solutionsKey(sols []Solution) []string {
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		keys := make([]string, 0, len(s.Bindings))
		for v := range s.Bindings {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		line := ""
		for _, v := range keys {
			line += v + "=" + s.Bindings[v].String() + ";"
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

const memoProg = `
edge(a, b). edge(b, c). edge(c, d). edge(b, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
big(X) :- val(X, V), gt(V, 10).
val(p, 20). val(q, 5). val(r, 30).
`

// TestMemoHitReplay proves the same call twice: the first fills the table,
// the second replays, and both return the same answer multiset as an
// untabled engine.
func TestMemoHitReplay(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	plain := NewDefault(parser.MustParse(memoProg))

	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	want, _, err := plain.Solutions(goal, d.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}

	sols1, res1, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.MemoMisses == 0 {
		t.Fatalf("first call: no memo miss recorded: %+v", res1.Stats)
	}
	sols2, res2, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MemoHits == 0 {
		t.Fatalf("second call: no memo hit recorded: %+v", res2.Stats)
	}
	wantKey := solutionsKey(want)
	for i, sols := range [][]Solution{sols1, sols2} {
		got := solutionsKey(sols)
		if fmt.Sprint(got) != fmt.Sprint(wantKey) {
			t.Errorf("call %d: answers %v, want %v", i+1, got, wantKey)
		}
	}
	if st := e.MemoStats(); st == nil || st.Hits == 0 || st.Entries == 0 {
		t.Errorf("store snapshot missing hits/entries: %+v", st)
	}
}

// TestMemoFailureCached caches empty answer sets too: a failing call is a
// miss once and a (failing) hit afterwards.
func TestMemoFailureCached(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	goal := parser.MustParseGoal("reach(d, Y)", 1000)
	res1, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Success || res2.Success {
		t.Fatal("reach(d, Y) should fail")
	}
	if res2.Stats.MemoHits == 0 {
		t.Errorf("failing call not served from table: %+v", res2.Stats)
	}
}

// TestMemoInvalidation mutates a support relation between calls: the entry
// must be dropped (stale fingerprint), and rolling the mutation back must
// restore hits — the fingerprint is content-based, not counter-based.
func TestMemoInvalidation(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	if _, err := e.Prove(goal, d); err != nil {
		t.Fatal(err)
	}

	// Mutate edge/2: the cached reach entries must go stale.
	row := []term.Term{term.NewSym("d"), term.NewSym("e")}
	d.Insert("edge", row)
	d.ResetTrail()
	sols, res, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoInvalidations == 0 {
		t.Errorf("no invalidation after support mutation: %+v", res.Stats)
	}
	found := false
	for _, s := range sols {
		if s.Bindings["Y"].Equal(term.NewSym("e")) {
			found = true
		}
	}
	if !found {
		t.Error("stale answers replayed: reach(a, e) missing after edge(d, e) insert")
	}

	// Mutate and roll back without an intermediate lookup: the content
	// fingerprint returns to the refill's state, so the entry hits — the
	// versioning is content-based, not counter-based (an Undo that
	// restores the tuples restores the hits).
	mark := d.Mark()
	d.Insert("edge", []term.Term{term.NewSym("x"), term.NewSym("y")})
	d.Undo(mark)
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MemoInvalidations != 0 {
		t.Errorf("rolled-back mutation invalidated: %+v", res2.Stats)
	}
	if res2.Stats.MemoHits == 0 {
		t.Errorf("rolled-back mutation missed: %+v", res2.Stats)
	}
}

// TestMemoReplicaSharing proves on one database replica and replays on
// another holding the same tuples: content fingerprints agree across
// replicas, so the second engine's session hits the shared store.
func TestMemoReplicaSharing(t *testing.T) {
	store := NewMemoStore(0)
	e1, d1 := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	e2, d2 := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	if _, err := e1.Prove(goal, d1); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Prove(goal, d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoHits == 0 {
		t.Errorf("replica did not hit the shared store: %+v", res.Stats)
	}
}

// TestMemoKeyAliasing distinguishes p(X, Y) from p(X, X): the key encodes
// variable identity by first occurrence.
func TestMemoKeyAliasing(t *testing.T) {
	src := `
pair(a, b). pair(c, c).
both(X, Y) :- pair(X, Y).
`
	e, d := memoSetup(t, src, nil)
	free := parser.MustParseGoal("both(X, Y)", 1000)
	sols, _, err := e.Solutions(free, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("both(X, Y): %d answers, want 2", len(sols))
	}
	same := parser.MustParseGoal("both(X, X)", 2000)
	sols, res, err := e.Solutions(same, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !sols[0].Bindings["X"].Equal(term.NewSym("c")) {
		t.Fatalf("both(X, X): answers %v, want exactly X=c", solutionsKey(sols))
	}
	if res.Stats.MemoHits != 0 {
		t.Errorf("both(X, X) reused both(X, Y)'s entry: %+v", res.Stats)
	}
}

// TestMemoAnswerAliasing replays body-made aliasing between call
// variables: same(X, Y) unifies X and Y without grounding either when
// called fully free... here via eq on queried values.
func TestMemoAnswerAliasing(t *testing.T) {
	src := `
val(p, 20). val(q, 5).
eqv(X, Y) :- val(X, V), val(Y, W), eq(V, W).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("eqv(A, B)", 1000)
	want, _, err := NewDefault(parser.MustParse(src)).Solutions(goal, d.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, _, err := e.Solutions(goal, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(solutionsKey(got)) != fmt.Sprint(solutionsKey(want)) {
			t.Errorf("call %d: %v, want %v", i+1, solutionsKey(got), solutionsKey(want))
		}
	}
}

// TestMemoDuplicatesPreserved keeps the answer MULTISET: a ground call
// succeeding through two derivations replays two successes.
func TestMemoDuplicatesPreserved(t *testing.T) {
	src := `
p(a). q(a).
twice(X) :- p(X).
twice(X) :- q(X).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("twice(a)", 1000)
	for i := 0; i < 2; i++ {
		sols, _, err := e.Solutions(goal, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 2 {
			t.Errorf("call %d: %d successes, want 2 (multiset parity)", i+1, len(sols))
		}
	}
}

// TestMemoAutoSelection: auto mode tables only the top-K predicates by
// profile cost, and ineligible predicates are never tabled at all.
func TestMemoAutoSelection(t *testing.T) {
	src := `
val(p, 20).
big(X) :- val(X, V), gt(V, 10).
small(X) :- val(X, V), lt(V, 10).
write(X) :- ins.log(X).
`
	profile := map[string]PredProfile{
		"big":   {Calls: 100, TimeUs: 500},
		"small": {Calls: 1, TimeUs: 1},
	}
	e, _ := memoSetup(t, src, &MemoOptions{Mode: "auto", TopK: 1, Profile: profile})
	tabled := e.MemoTabled()
	if len(tabled) != 1 || tabled[0] != "big/1" {
		t.Errorf("auto top-1 tabled %v, want [big/1]", tabled)
	}

	// Named selection; update-bearing predicates stay out even when named.
	e2, _ := memoSetup(t, src, &MemoOptions{Mode: "small,write"})
	tabled = e2.MemoTabled()
	if len(tabled) != 1 || tabled[0] != "small/1" {
		t.Errorf("csv mode tabled %v, want [small/1]", tabled)
	}
}

// TestMemoEviction bounds the store: a tiny budget forces LRU eviction and
// counts it.
func TestMemoEviction(t *testing.T) {
	store := NewMemoStore(0)
	store.maxBytes = 600 // a few entries at most
	e, d := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	for _, v := range []string{"a", "b", "c", "d"} {
		goal := parser.MustParseGoal("reach("+v+", Y)", 1000)
		if _, err := e.Prove(goal, d); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Snapshot()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget: %+v", store.maxBytes, st)
	}
	if st.Bytes > 600+256 {
		t.Errorf("store bytes %d exceed the bound", st.Bytes)
	}
}

// TestMemoTraceAnnotations: span trees label tabled calls with
// [memo miss] on the filling call and [memo hit] on replays.
func TestMemoTraceAnnotations(t *testing.T) {
	prog := parser.MustParse(memoProg)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Trace = true
	opts.Memo = &MemoOptions{Mode: "all"}
	e := New(prog, opts)
	goal := parser.MustParseGoal("big(p)", 1000)
	res1, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if !spanTreeContains(res1.Spans, "[memo miss]") {
		t.Errorf("fill call span missing [memo miss]: %v", res1.Spans)
	}
	if !spanTreeContains(res2.Spans, "[memo hit]") {
		t.Errorf("replay call span missing [memo hit]: %v", res2.Spans)
	}
}

func spanTreeContains(s *obs.Span, want string) bool {
	if s == nil {
		return false
	}
	if strings.Contains(s.Label, want) {
		return true
	}
	for _, c := range s.Children {
		if spanTreeContains(c, want) {
			return true
		}
	}
	return false
}

// TestMemoProveIDBypass: iterative deepening must not consult the table (a
// cutoff would make fills non-exhaustive), and plain DFS afterwards still
// works.
func TestMemoProveIDBypass(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	goal := parser.MustParseGoal("reach(a, d)", 1000)
	res, err := e.ProveID(goal, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("ProveID failed")
	}
	if res.Stats.MemoHits != 0 || res.Stats.MemoMisses != 0 {
		t.Errorf("ProveID consulted the memo table: %+v", res.Stats)
	}
}

// TestMemoConcBypass: calls interleaving under un-isolated '|' must not be
// served from the table — a sibling's update between replayed answers
// would be invisible. The differential check: a concurrent sibling inserts
// the tuple the tabled call reads.
func TestMemoConcBypass(t *testing.T) {
	src := `
seen(X) :- mark(X).
flow(X) :- seen(X), ins.done(X).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("ins.mark(m) | flow(m)", 1000)
	res, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("interleaved goal failed with tabling on")
	}
	if res.Stats.MemoHits != 0 {
		t.Errorf("tabled replay under un-isolated '|': %+v", res.Stats)
	}
}

// TestMemoDisabledAllocs is the zero-overhead guard: with Options.Memo nil
// the call dispatch path pays a nil check and nothing else, so a
// steady-state Prove of this goal allocates only goal resolution, the
// Result, the bindings map, renamed rule bodies and rebuilt residual goals
// — 14 allocs/op. Any growth here means the disabled path regressed.
func TestMemoDisabledAllocs(t *testing.T) {
	prog := parser.MustParse(memoProg)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewDefault(prog)
	goal := parser.MustParseGoal("reach(a, d)", 1000)
	if _, err := e.Prove(goal, d); err != nil { // warm the deriv pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := e.Prove(goal, d); err != nil {
			panic(err)
		}
	})
	if n > 14 {
		t.Errorf("memo-disabled Prove: %v allocs/op, want <= 14", n)
	}
}
