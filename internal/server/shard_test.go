package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/verify"
)

// shardedBankSrc builds a bank program over n accounts of 1000 each, using
// the same rulebase as bankSrc but enough accounts to populate every lane.
func shardedBankSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "account(n%d, 1000).\n", i)
	}
	b.WriteString(`
	balance(A, B) :- account(A, B).
	change(A, B1, B2) :- del.account(A, B1), ins.account(A, B2).
	withdraw(Amt, A) :- balance(A, B), B >= Amt, sub(B, Amt, C), change(A, B, C).
	deposit(Amt, A) :- balance(A, B), add(B, Amt, C), change(A, B, C).
	transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return b.String()
}

// TestShardedSerializabilityHammer drives a lane-partitioned server with
// concurrent clients whose transfer mix is ~20% cross-shard, then checks
// the outcome against two oracles: money conservation, and a serial replay
// of every committed transaction in LSN order (LSN order is the serial
// order the sharded commit protocol claims to realize — the replayed final
// state must equal the server's). Run under -race this also exercises the
// multi-lane locking protocol.
func TestShardedSerializabilityHammer(t *testing.T) {
	const (
		nshards  = 8
		accounts = 32
		clients  = 8
		txnsEach = 15
	)
	// Group accounts by the lane their tuples land in, so the test can
	// steer each transfer's cross-shard-ness deliberately. Shard routing is
	// a pure function of (pred, first-arg code), shared with the server.
	names := make([]string, accounts)
	byShard := make(map[int][]string)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		sh := db.ShardOf(nshards, "account", term.NewSym(names[i]).Code())
		byShard[sh] = append(byShard[sh], names[i])
	}
	var samePairs, crossPairs [][2]string
	for _, group := range byShard {
		for i := 1; i < len(group); i++ {
			samePairs = append(samePairs, [2]string{group[i-1], group[i]})
		}
	}
	for sh, group := range byShard {
		for osh, other := range byShard {
			if sh != osh {
				crossPairs = append(crossPairs, [2]string{group[0], other[0]})
			}
		}
	}
	if len(samePairs) == 0 || len(crossPairs) == 0 {
		t.Fatalf("degenerate account distribution: %d same-lane pairs, %d cross-lane pairs",
			len(samePairs), len(crossPairs))
	}

	src := shardedBankSrc(accounts)
	s, err := New(Options{Program: src, StoreShards: nshards, MaxRetries: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type committed struct {
		lsn  uint64
		goal string
	}
	var (
		mu  sync.Mutex
		log []committed
	)
	wantCross := 0
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.InProcClient()
			defer c.Close()
			for j := 0; j < txnsEach; j++ {
				var pair [2]string
				if j%5 == 0 { // ~20% of the mix spans lanes
					pair = crossPairs[(i*txnsEach+j)%len(crossPairs)]
				} else {
					pair = samePairs[(i*txnsEach+j)%len(samePairs)]
				}
				goal := fmt.Sprintf("transfer(%d, %s, %s)", 1+j%3, pair[0], pair[1])
				res, err := c.Exec(goal)
				if err != nil {
					errCh <- fmt.Errorf("client %d txn %d (%s): %w", i, j, goal, err)
					return
				}
				mu.Lock()
				log = append(log, committed{lsn: res.Version, goal: goal})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for j := 0; j < txnsEach; j++ {
		if j%5 == 0 {
			wantCross += clients
		}
	}

	// Oracle 1: conservation, exact commit accounting, contiguous LSNs.
	st := s.Stats()
	if st.Commits != clients*txnsEach {
		t.Fatalf("commits = %d, want %d", st.Commits, clients*txnsEach)
	}
	if st.Version != uint64(clients*txnsEach) {
		t.Fatalf("version = %d, want %d (LSNs must stay contiguous across lanes)",
			st.Version, clients*txnsEach)
	}
	d := s.Snapshot().Thaw()
	var sum int64
	for row := range d.All("account", 2) {
		sum += row[1].IntVal()
	}
	if want := int64(accounts) * 1000; sum != want {
		t.Fatalf("total money = %d, want %d", sum, want)
	}

	// Shard accounting: the bank program reads and writes only account
	// tuples, so a transfer is cross-shard exactly when its pair spans
	// lanes, and each commit bumps precisely its write lanes' counters.
	if st.Shards != nshards {
		t.Fatalf("stats shards = %d, want %d", st.Shards, nshards)
	}
	if st.CrossShardCommits != int64(wantCross) {
		t.Fatalf("cross-shard commits = %d, want %d", st.CrossShardCommits, wantCross)
	}
	var laneSum int64
	for _, c := range st.ShardCommits {
		laneSum += c
	}
	if want := st.Commits + int64(wantCross); laneSum != want {
		t.Fatalf("sum of lane commits = %d, want %d (each cross-lane write counts twice)",
			laneSum, want)
	}

	// Oracle 2: serial replay in LSN order. The committed LSNs must be a
	// permutation of 1..N, and replaying the goals in that order from the
	// initial state must land exactly on the server's final state.
	mu.Lock()
	byLSN := make(map[uint64]string, len(log))
	for _, c := range log {
		if _, dup := byLSN[c.lsn]; dup {
			t.Fatalf("two commits acknowledged with LSN %d", c.lsn)
		}
		byLSN[c.lsn] = c.goal
	}
	mu.Unlock()
	prog := parser.MustParse(src)
	replay, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	high := prog.VarHigh
	for lsn := uint64(1); lsn <= uint64(len(byLSN)); lsn++ {
		src, ok := byLSN[lsn]
		if !ok {
			t.Fatalf("no commit acknowledged LSN %d", lsn)
		}
		goal, h, err := parser.ParseGoal(src, high)
		if err != nil {
			t.Fatal(err)
		}
		high = h
		finals, err := verify.Finals(prog, goal, replay, engine.DefaultOptions())
		if err != nil {
			t.Fatalf("replaying %s at LSN %d: %v", src, lsn, err)
		}
		if len(finals) != 1 {
			t.Fatalf("replaying %s at LSN %d: %d final states, want 1", src, lsn, len(finals))
		}
		replay = finals[0]
	}
	if !d.Equal(replay) {
		t.Fatalf("server final state differs from the LSN-order serial replay:\nserver:\n%s\nreplay:\n%s", d, replay)
	}
}

// TestSessionCatchesUpOtherLanesAfterCommit is a regression test for the
// session watermark: a commit catches the committer up on the lanes it
// wrote, never on the others, so it must not move the session's version
// past commits on lanes it skipped. Session B opens a transaction (syncing
// at version 0) and writes lane Y; session A commits on lane X; B commits
// (LSN 2) and then queries A's tuple, which its next sync must bring in.
func TestSessionCatchesUpOtherLanesAfterCommit(t *testing.T) {
	const nshards = 2
	var x, y string
	for i := 0; x == "" || y == ""; i++ {
		name := fmt.Sprintf("k%d", i)
		switch db.ShardOf(nshards, "item", term.NewSym(name).Code()) {
		case 0:
			if x == "" {
				x = name
			}
		case 1:
			if y == "" {
				y = name
			}
		}
	}
	s, err := New(Options{Program: "put(X) :- ins.item(X).", StoreShards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := s.InProcClient(), s.InProcClient()
	defer a.Close()
	defer b.Close()

	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run("put(" + y + ")"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("put(" + x + ")"); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Commit(); err != nil || v != 2 {
		t.Fatalf("B's commit: version %d, err %v; want version 2", v, err)
	}
	rows, err := b.Query("item("+x+")", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("session B queried item(%s) after its own commit: %d answers, want 1 (A's commit on the other lane)", x, len(rows))
	}
}
