package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/term"
)

// memoEntryReads returns the reads of the single entry whose key names
// pred, failing unless exactly one does.
func memoEntryReads(t *testing.T, e *Engine, pred string) []memoRead {
	t.Helper()
	s := e.memo.store
	s.mu.Lock()
	defer s.mu.Unlock()
	var found []*memoEntry
	for key, ent := range s.entries {
		if strings.Contains(key, ":"+pred) {
			found = append(found, ent)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d entries for %s, want 1", len(found), pred)
	}
	return found[0].reads
}

// proveStats proves goal on d and returns its stats and success.
func proveStats(t *testing.T, e *Engine, goal string, d *db.DB) (Stats, bool) {
	t.Helper()
	res, err := e.Prove(parser.MustParseGoal(goal, 1000), d)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats, res.Success
}

const memoReadsProg = `
val(p, 20). val(q, 5). val(r, 30). val(s, 1).
big(X) :- val(X, V), gt(V, 10).
quiet :- empty.alarm.
`

// TestMemoUnreadBucketWriteKeepsHit: an entry depends on the buckets its
// fill read, so a write to another bucket of the same relation keeps the
// hit, and a write to the read bucket invalidates.
func TestMemoUnreadBucketWriteKeepsHit(t *testing.T) {
	e, d := memoSetup(t, memoReadsProg, nil)
	if _, ok := proveStats(t, e, "big(p)", d); !ok {
		t.Fatal("big(p) failed")
	}
	reads := memoEntryReads(t, e, "big")
	if len(reads) != 1 || reads[0].first != term.NewSym("p").Code() {
		t.Fatalf("big(p) reads %+v, want the single val bucket p", reads)
	}
	d.Insert("val", []term.Term{term.NewSym("q"), term.NewInt(50)})
	d.ResetTrail()
	if st, _ := proveStats(t, e, "big(p)", d); st.MemoHits != 1 || st.MemoInvalidations != 0 {
		t.Fatalf("write to unread bucket q: %+v, want a hit", st)
	}
	d.Delete("val", []term.Term{term.NewSym("p"), term.NewInt(20)})
	d.ResetTrail()
	st, ok := proveStats(t, e, "big(p)", d)
	if st.MemoInvalidations != 1 || ok {
		t.Fatalf("delete in read bucket p: %+v success=%v, want an invalidation and failure", st, ok)
	}
}

// TestMemoEmptyBucketInsertInvalidates: probing an absent bucket is a
// read, so an insert that creates the bucket invalidates the (failing)
// entry.
func TestMemoEmptyBucketInsertInvalidates(t *testing.T) {
	e, d := memoSetup(t, memoReadsProg, nil)
	if _, ok := proveStats(t, e, "big(z)", d); ok {
		t.Fatal("big(z) succeeded on an empty bucket")
	}
	if st, _ := proveStats(t, e, "big(z)", d); st.MemoHits != 1 {
		t.Fatalf("repeat big(z): %+v, want a hit", st)
	}
	d.Insert("val", []term.Term{term.NewSym("z"), term.NewInt(40)})
	d.ResetTrail()
	st, ok := proveStats(t, e, "big(z)", d)
	if st.MemoInvalidations != 1 || !ok {
		t.Fatalf("insert into probed bucket z: %+v success=%v, want an invalidation and success", st, ok)
	}
}

// TestMemoEmptyTestInvalidates: empty.p reads the predicate at every
// arity; a change that makes it false, and then true again, invalidates.
func TestMemoEmptyTestInvalidates(t *testing.T) {
	e, d := memoSetup(t, memoReadsProg, nil)
	if _, ok := proveStats(t, e, "quiet", d); !ok {
		t.Fatal("quiet failed with no alarm")
	}
	reads := memoEntryReads(t, e, "quiet")
	if len(reads) != 1 || reads[0].rel.pred != "alarm" || reads[0].rel.arity >= 0 {
		t.Fatalf("quiet reads %+v, want one predicate-level read of alarm", reads)
	}
	d.Insert("alarm", []term.Term{term.NewInt(1)})
	d.ResetTrail()
	if st, ok := proveStats(t, e, "quiet", d); st.MemoInvalidations != 1 || ok {
		t.Fatalf("alarm raised: %+v success=%v, want an invalidation and failure", st, ok)
	}
	d.Delete("alarm", []term.Term{term.NewInt(1)})
	d.ResetTrail()
	if st, ok := proveStats(t, e, "quiet", d); st.MemoInvalidations != 1 || !ok {
		t.Fatalf("alarm cleared: %+v success=%v, want an invalidation and success", st, ok)
	}
}

// TestMemoUnindexedRelationReads: a DB without an index has no buckets,
// so every fill read is stored at relation level and any write to the
// relation invalidates.
func TestMemoUnindexedRelationReads(t *testing.T) {
	e, _ := memoSetup(t, memoReadsProg, nil)
	d, err := db.FromFacts(e.Program().Facts, db.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proveStats(t, e, "big(p)", d); !ok {
		t.Fatal("big(p) failed")
	}
	reads := memoEntryReads(t, e, "big")
	if len(reads) != 1 || reads[0].first != 0 || reads[0].rel.pred != "val" {
		t.Fatalf("unindexed big(p) reads %+v, want one relation-level read of val", reads)
	}
	d.Insert("val", []term.Term{term.NewSym("q"), term.NewInt(50)})
	d.ResetTrail()
	if st, _ := proveStats(t, e, "big(p)", d); st.MemoInvalidations != 1 {
		t.Fatalf("unindexed write to val: %+v, want an invalidation", st)
	}
}

// TestMemoBucketCollapse: a fill that read more than half of a relation's
// buckets stores one relation-level read; one that read at most half keeps
// its bucket reads.
func TestMemoBucketCollapse(t *testing.T) {
	const rules = "two(X, Z) :- edge(X, Y), edge(Y, Z).\n"
	for _, tc := range []struct {
		facts    string
		collapse bool
	}{
		// two(n0, Z) reads buckets n0 and n1.
		{"edge(n0, n1). edge(n1, n2). edge(n2, n3).", true},              // 2 of 3
		{"edge(n0, n1). edge(n1, n2). edge(x1, y). edge(x2, y).", false}, // 2 of 4
		{"edge(n0, n1). edge(n1, n2). edge(x1, y). edge(x2, y). edge(x3, y).", false},
	} {
		e, d := memoSetup(t, tc.facts+"\n"+rules, nil)
		if _, ok := proveStats(t, e, "two(n0, Z)", d); !ok {
			t.Fatalf("%s: two(n0, Z) failed", tc.facts)
		}
		reads := memoEntryReads(t, e, "two")
		if tc.collapse {
			if len(reads) != 1 || reads[0].first != 0 {
				t.Errorf("%s: reads %+v, want one relation-level read", tc.facts, reads)
			}
			continue
		}
		if len(reads) != 2 || reads[0].first == 0 || reads[1].first == 0 {
			t.Errorf("%s: reads %+v, want the two bucket reads", tc.facts, reads)
		}
	}
}

// memoRandomExtra adds programs with recursion, empty.p, nested tabled
// calls and bucket-selective joins to the shipped corpus, whose programs
// have few tabling-eligible predicates. The random writes keep every
// binary relation acyclic (see TestMemoDifferentialRandomWrites).
var memoRandomExtra = map[string]string{
	"memoProg":      memoProg,
	"reachChain":    reachChainSrc,
	"memoReadsProg": memoReadsProg,
	"mixed": `
edge(a, b). edge(b, c). edge(a, c). edge(c, d). flag(x). flag(x, y).
sample_reading(s1, r1). sample_reading(s2, r2). reading(r1, 950). reading(r2, 10).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
linked(X) :- reach(X, d), empty.flag.
two(X, Z) :- reach(X, Y), edge(Y, Z).
hot_reading(S, R) :- reading(R, V), V > 900, sample_reading(S, R).
`,
}

// TestMemoDifferentialRandomWrites interleaves random inserts and deletes
// on the relations each program's rules read with calls of its tabled
// predicates under random call patterns, and requires the tabled engine's
// answer multiset to equal the untabled engine's after every write. The
// programs are the corpus plus memoRandomExtra. An inserted binary tuple
// always goes from an earlier constant to a later one, so recursive
// relations stay acyclic: over cyclic data the loop check prunes by search
// context, and neither the failure table nor the memo tables preserve the
// untabled answers there (see CHANGES.md).
func TestMemoDifferentialRandomWrites(t *testing.T) {
	progs := map[string]*ast.Program{}
	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		progs[filepath.Base(file)] = prog
	}
	for name, src := range memoRandomExtra {
		progs[name] = parser.MustParse(src)
	}
	for _, name := range slices.Sorted(maps.Keys(progs)) {
		prog := progs[name]
		plainOpts := DefaultOptions()
		plainOpts.MaxSteps = 200_000
		tabledOpts := plainOpts
		tabledOpts.Memo = &MemoOptions{Mode: "all"}
		plain := New(prog, plainOpts)
		tabled := New(prog, tabledOpts)
		if tabled.memo == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var rels []*memoRel
			for _, r := range tabled.memo.rels {
				if r.arity >= 0 {
					rels = append(rels, r)
				}
			}
			slices.SortFunc(rels, func(a, b *memoRel) int {
				return memoCompare(memoRead{rel: a}, memoRead{rel: b})
			})
			consts := map[string]term.Term{"fresh": term.NewSym("fresh")}
			for _, f := range prog.Facts {
				for _, a := range f.Args {
					consts[a.String()] = a
				}
			}
			var pool []term.Term
			for _, k := range slices.Sorted(maps.Keys(consts)) {
				pool = append(pool, consts[k])
			}
			tabledPreds := tabled.MemoTabled()
			d := freshDB(t, prog)
			rng := rand.New(rand.NewSource(int64(len(name))))
			compared := 0
			for step := 0; step < 200; step++ {
				if len(rels) > 0 && step%2 == 1 {
					r := rels[rng.Intn(len(rels))]
					if rows := d.Tuples(r.pred, r.arity); len(rows) > 0 && rng.Intn(2) == 0 {
						d.Delete(r.pred, rows[rng.Intn(len(rows))])
					} else {
						idx := make([]int, r.arity)
						for i := range idx {
							idx[i] = rng.Intn(len(pool))
						}
						if r.arity == 2 {
							if idx[0] == idx[1] {
								idx[1] = (idx[1] + 1) % len(pool)
							}
							if idx[0] > idx[1] {
								idx[0], idx[1] = idx[1], idx[0]
							}
						}
						row := make([]term.Term, r.arity)
						for i := range row {
							row[i] = pool[idx[i]]
						}
						d.Insert(r.pred, row)
					}
					d.ResetTrail()
				}
				pred, arity, _ := splitPredArity(tabledPreds[rng.Intn(len(tabledPreds))])
				args := make([]string, arity)
				for i := range args {
					if rng.Intn(2) == 0 {
						args[i] = fmt.Sprintf("A%d", i)
					} else {
						args[i] = pool[rng.Intn(len(pool))].String()
					}
				}
				goal := pred
				if arity > 0 {
					goal += "(" + strings.Join(args, ", ") + ")"
				}
				g := parser.MustParseGoal(goal, prog.VarHigh)
				sp, _, perr := plain.Solutions(g, d, planSolutionCap)
				st, _, terr := tabled.Solutions(g, d, planSolutionCap)
				if perr != nil || len(sp) == planSolutionCap {
					continue // budget or cap: the two searches are not comparable
				}
				if terr != nil {
					t.Fatalf("step %d %s: tabled error %v, plain succeeded", step, goal, terr)
				}
				a, b := solutionsKey(st), solutionsKey(sp)
				if strings.Join(a, "\n") != strings.Join(b, "\n") {
					t.Fatalf("step %d %s: answers diverged:\n tabled: %v\n plain:  %v", step, goal, a, b)
				}
				compared++
			}
			if compared == 0 {
				t.Fatal("no call was comparable")
			}
			if st := tabled.MemoStats(); st.Hits == 0 {
				t.Fatalf("no call was served from the memo table: %+v", st)
			}
		})
	}
}

// TestMemoFillIgnoresOlderFailureEntries: s1's fill records t(p) as a
// failed configuration; s2's fill in the same search meets the same
// configuration and must explore it rather than prune it, or s2's entry
// would lack the val bucket read and replay a stale failure after the
// write.
func TestMemoFillIgnoresOlderFailureEntries(t *testing.T) {
	src := `
val(p, 5).
t(X) :- val(X, V), gt(V, 10).
s1(X) :- t(X).
s2(X) :- t(X).
either :- s1(p).
either :- s2(p).
`
	e, d := memoSetup(t, src, &MemoOptions{Mode: "s1,s2"})
	if _, ok := proveStats(t, e, "either", d); ok {
		t.Fatal("either succeeded with val(p, 5)")
	}
	if reads := memoEntryReads(t, e, "s2"); len(reads) != 1 || reads[0].rel.pred != "val" {
		t.Fatalf("s2(p) reads %+v, want the val bucket", reads)
	}
	d.Insert("val", []term.Term{term.NewSym("p"), term.NewInt(50)})
	d.ResetTrail()
	if _, ok := proveStats(t, e, "s2(p)", d); !ok {
		t.Fatal("s2(p) replayed a stale failure after val(p, 50) was inserted")
	}
}
