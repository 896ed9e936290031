package main

import (
	"testing"

	td "repro"
	"repro/internal/machine"
)

func TestStreamsFollowTheSeed(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if err := checkStreams(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchChecksFollowsTheGuessOrder(t *testing.T) {
	x1 := machine.Lit{Var: 1}
	notX1 := machine.Lit{Var: 1, Neg: true}
	for _, c := range []struct {
		cnf  *machine.CNF
		want int
	}{
		// x1 = true satisfies both clauses on the first assignment.
		{&machine.CNF{N: 1, Clauses: [][]machine.Lit{{x1}, {x1, notX1}}}, 2},
		// x1 = true fails the second clause, x1 = false the first.
		{&machine.CNF{N: 1, Clauses: [][]machine.Lit{{x1}, {notX1}}}, 3},
	} {
		if got := searchChecks(c.cnf); got != c.want {
			t.Errorf("searchChecks(%v) = %d, want %d", c.cnf.Clauses, got, c.want)
		}
	}
}

func TestBankGateRejectsWrongLedger(t *testing.T) {
	l := newLedger()
	l.delta[1], l.delta[2] = -1, 1
	l.acked, l.maxLSN = 1, 2
	balances := make(map[int]int, bankAccounts)
	for a := 1; a <= bankAccounts; a++ {
		balances[a] = bankBalance + l.delta[a]
	}
	if err := checkRecovered(2, balances, l); err != nil {
		t.Fatalf("correct ledger rejected: %v", err)
	}
	if checkRecovered(3, balances, l) == nil {
		t.Error("recovered version past the last acknowledged LSN accepted")
	}
	balances[2]++
	if checkRecovered(2, balances, l) == nil {
		t.Error("balance off by one accepted")
	}
}

func TestLabGateRejectsStaleAndUnsentAnswers(t *testing.T) {
	l := newLabLedger()
	l.sentHot["w0"], l.sentHot["w1"] = 5, 5
	l.ackHot[5] = []string{"w0", "w1"}
	ok := queryCheck{sample: 5, seen: 1, answer: []string{"w0"}}
	if err := l.verifyAnswer(ok); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if l.verifyAnswer(queryCheck{sample: 5, seen: 2, answer: []string{"w0"}}) == nil {
		t.Error("answer missing an acknowledged reading accepted")
	}
	if l.verifyAnswer(queryCheck{sample: 5, seen: 1, answer: []string{"w0", "w9"}}) == nil {
		t.Error("answer with a reading never sent accepted")
	}
	if l.verifyAnswer(queryCheck{sample: 6, seen: 0, answer: []string{"w0"}}) == nil {
		t.Error("answer with another sample's reading accepted")
	}
}

func TestTwoStackGateRejectsWrongStack(t *testing.T) {
	word := machine.ABWord(copyWord)
	stack, err := copiedStack(word)
	if err != nil {
		t.Fatal(err)
	}
	prove := func(expect []string) bool {
		src, goal, err := copyCheckSource(word, expect)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := td.Run(src, goal)
		if err != nil {
			t.Fatal(err)
		}
		return res.Success
	}
	if !prove(stack) {
		t.Fatal("the copy did not leave the expected stack")
	}
	if prove(append([]string{"a"}, stack...)) {
		t.Error("a stack one symbol too deep was accepted")
	}
}
