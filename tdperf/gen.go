package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"repro/internal/machine"
)

// Seeded operation streams. Every input a run sends is drawn here from the
// --seed argument (and the round and connection it belongs to), so the same
// seed always produces the same operations; the program under test only
// ever sees the generated goals.

const (
	bankAccounts = 1024
	bankBalance  = 1000

	labSamples     = 1024
	labReadingsPer = 8
	labHotEvery    = 4 // workflow.DefaultAnalyze: every 4th sample starts with one hot reading

	satInstances = 16
	satVars      = 8
	satClauses   = 34 // m/n ~ 4.25, near the 3-SAT threshold: sat and unsat are both common
	satChecksMin = 1500
	satChecksMax = 1700
)

// rng returns a generator for one (seed, stream, round, conn) tuple. The
// components are mixed with splitmix64 so neighbouring seeds give unrelated
// streams.
func rng(seed int64, stream string, round, conn int) *rand.Rand {
	h := uint64(seed)
	for _, c := range stream {
		h = mix(h ^ uint64(c))
	}
	h = mix(h ^ uint64(round)<<20 ^ uint64(conn))
	return rand.New(rand.NewSource(int64(h)))
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// transfer moves one unit from account From to account To.
type transfer struct{ From, To int }

func (t transfer) goal() string { return fmt.Sprintf("iso(transfer(1, %d, %d))", t.From, t.To) }

// bankStream is connection conn's transfers in one round: accounts drawn
// uniformly from 1..bankAccounts, never the same account twice in one
// transfer.
func bankStream(seed int64, round, conn, n int) []transfer {
	r := rng(seed, "bank", round, conn)
	out := make([]transfer, n)
	for i := range out {
		from := 1 + r.Intn(bankAccounts)
		to := 1 + r.Intn(bankAccounts-1)
		if to >= from {
			to++
		}
		out[i] = transfer{from, to}
	}
	return out
}

// labOp is one lab operation: a QUERY of a sample's hot readings, or
// an EXEC appending reading Reading with value Value to the sample.
type labOp struct {
	Query   bool
	Sample  int
	Reading string
	Value   int
}

func (o labOp) goal() string {
	if o.Query {
		return fmt.Sprintf("hot_reading(s%d, R)", o.Sample)
	}
	return fmt.Sprintf("iso(record(s%d, %s, %d))", o.Sample, o.Reading, o.Value)
}

// hot reports whether an appended reading exceeds the hot threshold.
func (o labOp) hot() bool { return o.Value > 900 }

// labStream is connection conn's operations in one round: 80% queries of a
// uniformly drawn sample, 20% appends of which 1 in 8 are hot. Reading ids
// carry the round and connection, so every append interns a new id.
func labStream(seed int64, round, conn, n int) []labOp {
	r := rng(seed, "lab", round, conn)
	out := make([]labOp, n)
	for i := range out {
		op := labOp{Sample: 1 + r.Intn(labSamples)}
		if r.Intn(5) == 0 {
			op.Reading = fmt.Sprintf("w%d_%d_%d", round, conn, i)
			if r.Intn(8) == 0 {
				op.Value = 901 + r.Intn(100)
			} else {
				op.Value = 50 + r.Intn(800)
			}
		} else {
			op.Query = true
		}
		out[i] = op
	}
	return out
}

// satStream is the run's fixed set of 3-CNF instances, the same in every
// round: random instances drawn in seed order, of which only those whose
// search checks between satChecksMin and satChecksMax clauses
// (searchChecks) are kept, the first half that are unsatisfiable and the
// first half that are satisfiable. The engine's work on an instance follows
// that count closely, so every seed asks for about the same search.
func satStream(seed int64) []*machine.CNF {
	r := rng(seed, "sat", 0, 0)
	var sat, unsat []*machine.CNF
	for len(sat) < satInstances/2 || len(unsat) < satInstances/2 {
		c := machine.RandomCNF(r, satVars, satClauses, 3)
		if k := searchChecks(c); k < satChecksMin || k > satChecksMax {
			continue
		}
		_, ok := c.BruteForce()
		switch {
		case !ok && len(unsat) < satInstances/2:
			unsat = append(unsat, c)
		case ok && len(sat) < satInstances/2:
			sat = append(sat, c)
		}
	}
	return append(sat, unsat...)
}

// searchChecks counts the clause checks of the guess-and-check search in
// machine.SATRules: assignments in the order the guess rules enumerate
// them (x1 first, true before false), each checked clause by clause up to
// the first falsified clause, stopping at the first satisfying assignment.
func searchChecks(c *machine.CNF) int {
	checks := 0
	for code := 0; code < 1<<c.N; code++ {
		// Bit N-v of code is 0 while x_v is still on its first choice, true.
		holds := func(l machine.Lit) bool { return (code&(1<<(c.N-l.Var)) == 0) != l.Neg }
		all := true
		for _, cl := range c.Clauses {
			checks++
			if !slices.ContainsFunc(cl, holds) {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	return checks
}

// checkStreams verifies that generation is a pure function of the seed:
// two generations with the same seed are identical, and a different seed
// gives different streams.
func checkStreams(seed int64) error {
	gens := map[string]func(int64) any{
		"bank": func(s int64) any { return bankStream(s, 0, 0, 256) },
		"lab":  func(s int64) any { return labStream(s, 0, 0, 256) },
		"sat":  func(s int64) any { return satStream(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(seed), gen(seed)) {
			return fmt.Errorf("%s stream: seed %d generated two different streams", name, seed)
		}
		if reflect.DeepEqual(gen(seed), gen(seed+1)) {
			return fmt.Errorf("%s stream: seeds %d and %d generated the same stream", name, seed, seed+1)
		}
	}
	return nil
}
