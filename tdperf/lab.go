package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	td "repro"
	"repro/internal/workflow"
)

// lab-serial and lab-mixed: an in-memory server holding the genome lab's
// analysis data — 1024 samples of 8 readings — queried by analysis programs
// while new results accumulate. Each connection turns tabling on, then
// sends ~80% QUERYs of one sample's hot readings and ~20% EXEC appends of a
// reading. lab-serial sends a round's operations over one connection,
// lab-mixed splits them over two. Only lab-serial is listed in
// BENCHMARK.json: with two sessions the server's catch-up defect (a session
// skips a lane another session advanced; see README.md) makes lab-mixed's
// answer gate fail on about half the runs.

const labOpsPerRound = 30000

// labProgram is workflow.AnalyzeSource extended with a per-sample reading
// counter, an append-only record/3 transaction and a two-argument hot-reading
// rule written in the naive textual order (scan every reading first). The
// ?- directive declares the analysts' entry point, hot readings of a given
// sample, which is the binding pattern the planner reorders the rule for.
func labProgram() string {
	var b strings.Builder
	b.WriteString(workflow.AnalyzeSource(workflow.DefaultAnalyze(labSamples)))
	for s := 1; s <= labSamples; s++ {
		fmt.Fprintf(&b, "nreadings(s%d, %d).\n", s, labReadingsPer)
	}
	b.WriteString(`record(S, R, V) :- nreadings(S, N), del.nreadings(S, N), add(N, 1, M),
                   ins.nreadings(S, M), ins.sample_reading(S, R), ins.reading(R, V).
hot_reading(S, R) :- reading(R, V), V > 900, sample_reading(S, R).
?- hot_reading(s1, R).
`)
	return b.String()
}

// initialHot is the one hot reading AnalyzeSource gives every labHotEvery-th
// sample ("" for the others).
func initialHot(sample int) string {
	if sample%labHotEvery != 0 {
		return ""
	}
	return "r" + strconv.Itoa(sample*labReadingsPer)
}

// labLedger is the clients' shared record of what was sent and
// acknowledged, used to check every answer.
type labLedger struct {
	mu      sync.Mutex
	sentHot map[string]int   // hot reading -> its sample, registered before the EXEC is sent
	ackHot  map[int][]string // sample -> acknowledged hot readings, in ack order
	records map[int]int      // sample -> acknowledged appends
}

func newLabLedger() *labLedger {
	return &labLedger{sentHot: map[string]int{}, ackHot: map[int][]string{}, records: map[int]int{}}
}

// queryCheck is one answered QUERY: the sample, how many of its hot
// readings were acknowledged before the query was sent, and the answer.
type queryCheck struct {
	sample int
	seen   int
	answer []string
}

func (r *run) labRound(n int, traced bool, conns int) error {
	p, tr := r.phase(traced), r.tracerFor(traced)
	opts := td.ServerOptions{}
	var sink *wideSink
	if traced {
		sink = &wideSink{}
		opts.WideSink, opts.StageSample, opts.Profile = sink, 1, true
	}

	settle()
	t0 := time.Now()
	opts.Program = labProgram()
	var prog *td.Program
	var err error
	tr.timed("td.Parse", func() { prog, err = td.Parse(opts.Program) })
	if err != nil {
		return err
	}
	var vet *td.VetReport
	tr.timed("td.Vet", func() { vet = td.Vet(prog) })
	if err := vet.Err(); err != nil {
		return err
	}
	tr.timed("td.Plan", func() { td.Plan(prog) })
	var srv *td.Server
	tr.timed("td.NewServer.setup", func() { srv, err = td.NewServer(opts) })
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	clients, err := dialAll(tr, addr.String(), conns)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	for _, cl := range clients {
		start := time.Now()
		_, err := cl.Table("all")
		tr.add(0, 0, "client.TABLE", start, time.Now())
		if err != nil {
			return fmt.Errorf("TABLE all: %w", err)
		}
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())

	before := srv.Stats()
	promBefore := promValues(srv)
	ledger := newLabLedger()
	perConn := labOpsPerRound / conns
	reqs := make([][]request, len(clients))
	checks := make([][]queryCheck, len(clients))
	commitLat := make([][]float64, len(clients))
	queryLat := make([][]float64, len(clients))
	r.timedPhase(p, func() int {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				reqs[c], checks[c], commitLat[c], queryLat[c] = r.labConn(tr, clients[c], labStream(r.seed, n, c, perConn), ledger)
			}(c)
		}
		wg.Wait()
		return len(clients) * perConn
	})
	after := srv.Stats()
	promAfter := promValues(srv)

	for c := range clients {
		p.addLat("commit", commitLat[c])
		p.addLat("query", queryLat[c])
		p.count("queries_ok", float64(len(checks[c])))
	}
	countServer(p, before, after, promBefore, promAfter)
	if prof := after.ProverProfile["hot_reading"]; prof.Calls > 0 {
		was := before.ProverProfile["hot_reading"]
		p.count("query_prove_us", float64(prof.TimeUs-was.TimeUs))
		p.count("query_prove_calls", float64(prof.Calls-was.Calls))
	}

	// Gates, after the load: every answer against the ledger, then the
	// per-sample counters against the acknowledged appends.
	for c := range checks {
		for i := range checks[c] {
			if err := ledger.verifyAnswer(checks[c][i]); err != nil {
				r.gate("lab round %d, connection %d: %v", n, c, err)
				break
			}
		}
	}
	counts, err := queryCounters(clients[0])
	if err != nil {
		return err
	}
	if err := ledger.verifyCounters(counts); err != nil {
		r.gate("lab round %d: %v", n, err)
	}
	r.labSelfTest(ledger, checks, counts)

	srv.Close() // idempotent; every wide event is out once it returns
	if sink != nil {
		if lost := sink.attach(tr, reqs); lost > 0 {
			fmt.Printf("trace: %d wide events matched no connection\n", lost)
		}
	}
	return nil
}

// labConn runs one connection's closed loop. Appends register their reading
// before they are sent and are booked as acknowledged when the reply
// arrives; a query notes how many of its sample's hot readings were
// acknowledged before it was sent. Failures are counted, never retried.
func (r *run) labConn(tr *tracer, cl *td.ServerClient, ops []labOp, l *labLedger) (reqs []request, checks []queryCheck, commitLat, queryLat []float64) {
	for _, op := range ops {
		goal := op.goal()
		if op.Query {
			l.mu.Lock()
			seen := len(l.ackHot[op.Sample])
			l.mu.Unlock()
			start := time.Now()
			sols, err := cl.Query(goal, 0)
			end := time.Now()
			queryLat = append(queryLat, float64(end.Sub(start))/1e6)
			r.out.record(err)
			tr.add(0, 0, "client.QUERY", start, end)
			if err != nil {
				continue
			}
			ans := make([]string, len(sols))
			for i, s := range sols {
				ans[i] = s["R"]
			}
			checks = append(checks, queryCheck{sample: op.Sample, seen: seen, answer: ans})
			continue
		}
		if op.hot() {
			l.mu.Lock()
			l.sentHot[op.Reading] = op.Sample
			l.mu.Unlock()
		}
		start := time.Now()
		_, err := cl.Exec(goal)
		end := time.Now()
		commitLat = append(commitLat, float64(end.Sub(start))/1e6)
		r.out.record(err)
		if tr != nil {
			reqs = append(reqs, request{span: tr.add(0, 0, "client.EXEC", start, end), goal: goal, start: start, end: end})
		}
		if err != nil {
			continue
		}
		l.mu.Lock()
		l.records[op.Sample]++
		if op.hot() {
			l.ackHot[op.Sample] = append(l.ackHot[op.Sample], op.Reading)
		}
		l.mu.Unlock()
	}
	return reqs, checks, commitLat, queryLat
}

// verifyAnswer checks one QUERY answer: it holds every hot reading of the
// sample acknowledged before the query was sent, and nothing but the
// sample's initial hot reading and hot readings that were sent for it.
func (l *labLedger) verifyAnswer(q queryCheck) error {
	got := make(map[string]bool, len(q.answer))
	for _, rd := range q.answer {
		if s, ok := l.sentHot[rd]; !(ok && s == q.sample) && rd != initialHot(q.sample) {
			return fmt.Errorf("hot_reading(s%d, R) answered %s, which was never sent as a hot reading of s%d", q.sample, rd, q.sample)
		}
		got[rd] = true
	}
	for _, rd := range l.ackHot[q.sample][:q.seen] {
		if !got[rd] {
			return fmt.Errorf("hot_reading(s%d, R) misses %s, acknowledged before the query was sent (answer %v)", q.sample, rd, q.answer)
		}
	}
	if init := initialHot(q.sample); init != "" && !got[init] {
		return fmt.Errorf("hot_reading(s%d, R) misses the initial hot reading %s", q.sample, init)
	}
	return nil
}

// verifyCounters checks the final per-sample reading counters against the
// acknowledged appends.
func (l *labLedger) verifyCounters(counts map[int]int) error {
	if len(counts) != labSamples {
		return fmt.Errorf("%d reading counters, want %d", len(counts), labSamples)
	}
	for s := 1; s <= labSamples; s++ {
		if want := labReadingsPer + l.records[s]; counts[s] != want {
			return fmt.Errorf("nreadings(s%d) = %d, acknowledged appends say %d", s, counts[s], want)
		}
	}
	return nil
}

func queryCounters(cl *td.ServerClient) (map[int]int, error) {
	sols, err := cl.Query("nreadings(S, N)", 0)
	if err != nil {
		return nil, fmt.Errorf("query counters: %w", err)
	}
	out := make(map[int]int, len(sols))
	for _, s := range sols {
		sample, err1 := strconv.Atoi(strings.TrimPrefix(s["S"], "s"))
		n, err2 := strconv.Atoi(s["N"])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("counter row %v is malformed", s)
		}
		if _, dup := out[sample]; dup {
			return nil, fmt.Errorf("sample s%d has two counters", sample)
		}
		out[sample] = n
	}
	return out, nil
}

// labSelfTest feeds the lab gates deliberately wrong expectations built
// from this round's real answers; each must be caught.
func (r *run) labSelfTest(l *labLedger, checks [][]queryCheck, counts map[int]int) {
	var q *queryCheck
	for c := range checks {
		for i := range checks[c] {
			if q == nil && checks[c][i].seen > 0 {
				q = &checks[c][i]
			}
		}
	}
	if q == nil {
		r.gate("lab self-test: no query saw an acknowledged hot reading")
		return
	}
	missing := *q
	missing.answer = without(q.answer, l.ackHot[q.sample][0])
	extra := *q
	extra.answer = append(append([]string{}, q.answer...), "never_sent")
	wrong := make(map[int]int, len(counts))
	for s, v := range counts {
		wrong[s] = v
	}
	wrong[q.sample]++
	for _, c := range []struct {
		what string
		err  error
	}{
		{"an answer missing an acknowledged reading", l.verifyAnswer(missing)},
		{"an answer with a reading never sent", l.verifyAnswer(extra)},
		{"a counter one above the acknowledged appends", l.verifyCounters(wrong)},
	} {
		if c.err == nil {
			r.gate("lab self-test: the gate accepted %s", c.what)
		}
	}
}

func without(xs []string, drop string) []string {
	var out []string
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}
