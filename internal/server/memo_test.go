package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// memoSrvProg has one tabling-eligible recursive predicate over a base
// relation the tests mutate through ordinary commits.
const memoSrvProg = `
edge(a, b). edge(b, c). edge(c, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`

func newMemoServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Program = memoSrvProg
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTableVerb drives the full verb surface: status on an untabled
// session, enabling tabling, hit accrual across repeated queries,
// invalidation through a committed base-relation write, and turning
// tabling back off.
func TestTableVerb(t *testing.T) {
	s := newMemoServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	st, err := c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Mode != "none" || len(st.Tabled) != 0 {
		t.Fatalf("fresh session status = %+v, want mode none and nothing tabled", st)
	}

	st, err = c.Table("all")
	if err != nil {
		t.Fatalf("Table all: %v", err)
	}
	if st.Mode != "all" {
		t.Fatalf("mode = %q after TABLE all", st.Mode)
	}
	found := false
	for _, pred := range st.Tabled {
		if pred == "reach/2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tabled = %v, want reach/2", st.Tabled)
	}

	// First query fills, second replays; both answer identically.
	first, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 1: %v", err)
	}
	second, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 2: %v", err)
	}
	if len(first) != 3 || len(second) != len(first) {
		t.Fatalf("answers diverged: %d then %d (want 3)", len(first), len(second))
	}
	st, err = c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("no memo traffic after repeat query: %+v", st)
	}
	if len(st.Preds) == 0 || st.Preds[0].Pred != "reach/2" {
		t.Fatalf("per-pred counters = %+v, want reach/2 first", st.Preds)
	}

	// A committed write to the support relation strands the cached entries:
	// the next query must see the new tuple, counting an invalidation.
	if _, err := c.Exec("ins.edge(d, e)"); err != nil {
		t.Fatalf("Exec ins: %v", err)
	}
	third, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 3: %v", err)
	}
	if len(third) != 4 {
		t.Fatalf("stale answers after support write: got %d solutions, want 4", len(third))
	}
	st, err = c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Invalidations == 0 {
		t.Fatalf("support write never invalidated: %+v", st)
	}

	// Server STATS carries the same counters under the memo_* keys.
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.MemoHits == 0 || stats.MemoMisses == 0 || stats.MemoEntries == 0 {
		t.Fatalf("STATS memo keys empty: %+v", stats)
	}
	if len(stats.MemoPreds) == 0 {
		t.Fatal("STATS memo_preds empty")
	}

	if st, err = c.Table("off"); err != nil || st.Mode != "none" || len(st.Tabled) != 0 {
		t.Fatalf("TABLE off -> %+v, %v", st, err)
	}
}

// TestTableAutoProfile proves the profile feedback loop: auto mode with no
// observations tables every eligible predicate, and a server-level Table
// option arms sessions without any verb.
func TestTableAutoProfile(t *testing.T) {
	s := newMemoServer(t, Options{Table: "auto"})
	c := s.InProcClient()
	defer c.Close()
	st, err := c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Mode != "auto" || len(st.Tabled) == 0 {
		t.Fatalf("server-level Table option not applied: %+v", st)
	}

	// A predicate list selects exactly the named predicates.
	if st, err = c.Table("reach"); err != nil {
		t.Fatalf("Table reach: %v", err)
	}
	if len(st.Tabled) != 1 || st.Tabled[0] != "reach/2" {
		t.Fatalf("csv mode tabled %v, want [reach/2]", st.Tabled)
	}
}

// TestTableSessionsShareStore proves cross-session reuse: one session's
// fill is the next session's hit (their replicas hold the same tuples, so
// the support fingerprints agree).
func TestTableSessionsShareStore(t *testing.T) {
	s := newMemoServer(t, Options{Table: "all"})
	c1 := s.InProcClient()
	defer c1.Close()
	if _, err := c1.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("c1 Query: %v", err)
	}
	h0, _, _, _ := s.memo.Counters()

	c2 := s.InProcClient()
	defer c2.Close()
	if _, err := c2.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("c2 Query: %v", err)
	}
	h1, _, _, _ := s.memo.Counters()
	if h1 <= h0 {
		t.Fatalf("second session missed the shared store: hits %d -> %d", h0, h1)
	}
}

// The memo metric families are always registered; their values move with
// tabled traffic.
func TestMetricsEndpointMemoSeries(t *testing.T) {
	s := newMemoServer(t, Options{Table: "all"})
	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Query("reach(a, Y)", 0); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE td_memo_hits_total counter",
		"# TYPE td_memo_misses_total counter",
		"# TYPE td_memo_invalidations_total counter",
		"# TYPE td_memo_evictions_total counter",
		"# TYPE td_memo_bytes gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "td_memo_hits_total 0") {
		t.Error("td_memo_hits_total stayed 0 after a repeated tabled query")
	}
}

// goldenPR10Stats extends the golden frame with the tabled-evaluation keys
// (PR 10). Like every addition since PR 3 they are new names only, omitted
// when zero, so pre-tabling clients keep decoding payloads unchanged and
// untabled servers keep emitting the pre-PR-10 frame byte for byte.
const goldenPR10Stats = `{
	"commits": 10, "version": 10,
	"memo_hits": 40, "memo_misses": 6, "memo_invalidations": 2,
	"memo_evictions": 1, "memo_bytes": 4096, "memo_entries": 5,
	"memo_preds": [{"pred": "reach/2", "hits": 38, "misses": 4}]
}`

func TestStatsSnapshotMemoKeys(t *testing.T) {
	var snap StatsSnapshot
	if err := json.Unmarshal([]byte(goldenPR10Stats), &snap); err != nil {
		t.Fatalf("golden PR-10 payload no longer decodes: %v", err)
	}
	if snap.MemoHits != 40 || snap.MemoMisses != 6 || snap.MemoInvalidations != 2 ||
		snap.MemoEvictions != 1 || snap.MemoBytes != 4096 || snap.MemoEntries != 5 {
		t.Fatalf("PR-10 fields decoded wrong: %+v", snap)
	}
	if len(snap.MemoPreds) != 1 || snap.MemoPreds[0].Pred != "reach/2" ||
		snap.MemoPreds[0].Hits != 38 || snap.MemoPreds[0].Misses != 4 {
		t.Fatalf("PR-10 memo_preds decoded wrong: %+v", snap.MemoPreds)
	}

	// Zero memo counters stay off the wire: an untabled server's frame is
	// byte-identical to the pre-PR-10 one.
	body, err := json.Marshal(StatsSnapshot{Commits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "memo") {
		t.Errorf("zero-valued memo keys leaked onto the wire:\n%s", body)
	}
	s0 := newMemoServer(t, Options{})
	c0 := s0.InProcClient()
	defer c0.Close()
	if _, err := c0.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("Query: %v", err)
	}
	body, err = json.Marshal(s0.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "memo") {
		t.Errorf("untabled server STATS frame mentions memo:\n%s", body)
	}

	// And a server that tabled reports them.
	s := newMemoServer(t, Options{Table: "all"})
	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Query("reach(a, Y)", 0); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	body, err = json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"memo_hits", "memo_misses", "memo_bytes", "memo_entries", "memo_preds"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("tabled server STATS frame missing %q:\n%s", key, body)
		}
	}
}

// TestMemoHitRecordsReads: a transaction whose tabled call is served from
// the memo table must still record the reads the call depends on, or OCC
// commits a transaction that read a tuple a concurrent commit deleted.
// Session A fills reach(a, Y) outside the transaction, replays it inside
// one, and session B deletes an edge the replayed answer rests on before
// A commits: A's commit must conflict, exactly as it does untabled.
func TestMemoHitRecordsReads(t *testing.T) {
	for _, mode := range []string{"none", "all"} {
		t.Run(mode, func(t *testing.T) {
			s := newMemoServer(t, Options{})
			a, b := s.InProcClient(), s.InProcClient()
			defer a.Close()
			defer b.Close()
			if _, err := a.Table(mode); err != nil {
				t.Fatalf("Table %s: %v", mode, err)
			}
			if _, err := a.Query("reach(a, Y)", 0); err != nil {
				t.Fatalf("Query: %v", err)
			}
			before, err := a.TableStatus()
			if err != nil {
				t.Fatalf("TableStatus: %v", err)
			}
			if err := a.Begin(); err != nil {
				t.Fatalf("Begin: %v", err)
			}
			if _, err := a.Run("reach(a, Y), Y = d, ins.seen(a, Y)"); err != nil {
				t.Fatalf("Run: %v", err)
			}
			after, err := a.TableStatus()
			if err != nil {
				t.Fatalf("TableStatus: %v", err)
			}
			if mode == "all" && after.Hits == before.Hits {
				t.Fatalf("RUN was not served from the memo table: before %+v, after %+v", before, after)
			}
			if _, err := b.Exec("del.edge(c, d)"); err != nil {
				t.Fatalf("Exec del: %v", err)
			}
			if _, err := a.Commit(); !IsConflict(err) {
				t.Fatalf("Commit after a concurrent delete of a read edge = %v, want conflict", err)
			}
		})
	}
}
