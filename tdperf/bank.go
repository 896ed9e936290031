package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	td "repro"
)

// bank-durable: two connections commit iso(transfer(1, A, B)) against 1024
// accounts on a durable server (snapshot + WAL, fsync on, default group
// commit and lanes). After the load the server is closed and reopened from
// the same files; the reopen is the timed recovery.

const bankOpsPerConn = 4000

func bankProgram() string {
	var b strings.Builder
	for i := 1; i <= bankAccounts; i++ {
		fmt.Fprintf(&b, "account(%d, %d).\n", i, bankBalance)
	}
	b.WriteString(`withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
                    sub(B, Amt, C), ins.account(A, C).
deposit(Amt, A)  :- account(A, B), del.account(A, B),
                    add(B, Amt, C), ins.account(A, C).
transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return b.String()
}

// bankLedger is the client-side record of acknowledged transfers.
type bankLedger struct {
	delta  map[int]int // account -> net units received
	acked  int
	maxLSN uint64
}

func (l *bankLedger) merge(o *bankLedger) {
	for a, d := range o.delta {
		l.delta[a] += d
	}
	l.acked += o.acked
	l.maxLSN = max(l.maxLSN, o.maxLSN)
}

func newLedger() *bankLedger { return &bankLedger{delta: make(map[int]int)} }

func (r *run) bankRound(n int, traced bool) error {
	p, tr := r.phase(traced), r.tracerFor(traced)
	dir, err := r.roundDir(n)
	if err != nil {
		return err
	}
	prog := bankProgram()
	opts := td.ServerOptions{
		SnapshotPath: filepath.Join(dir, "bank.snap"),
		WALPath:      filepath.Join(dir, "bank.wal"),
		Program:      prog,
	}
	var sink *wideSink
	if traced {
		sink = &wideSink{}
		opts.WideSink, opts.StageSample, opts.Profile = sink, 1, true
	}

	settle()
	t0 := time.Now()
	var srv *td.Server
	tr.timed("td.NewServer.setup", func() { srv, err = td.NewServer(opts) })
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	clients, err := dialAll(tr, addr.String(), 2)
	if err != nil {
		srv.Close()
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())

	before := srv.Stats()
	promBefore := promValues(srv)
	ledgers := make([]*bankLedger, len(clients))
	reqs := make([][]request, len(clients))
	lats := make([][]float64, len(clients))
	r.timedPhase(p, func() int {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ledgers[c], reqs[c], lats[c] = r.bankConn(tr, clients[c], bankStream(r.seed, n, c, bankOpsPerConn))
			}(c)
		}
		wg.Wait()
		return len(clients) * bankOpsPerConn
	})
	after := srv.Stats()
	promAfter := promValues(srv)
	closeAll(clients)
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if sink != nil {
		if lost := sink.attach(tr, reqs); lost > 0 {
			fmt.Printf("trace: %d wide events matched no connection\n", lost)
		}
	}

	ledger := newLedger()
	for _, l := range ledgers {
		ledger.merge(l)
	}
	for _, l := range lats {
		p.addLat("commit", l)
	}
	countServer(p, before, after, promBefore, promAfter)

	// Recovery: reopen the same snapshot + WAL. The load was a fixed number
	// of transfers, so every round replays a WAL of the same length.
	settle()
	reopen := opts
	reopen.WideSink, reopen.StageSample, reopen.Profile = nil, 0, false
	var rec *td.Server
	d := tr.timed("td.NewServer.recovery", func() { rec, err = td.NewServer(reopen) })
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	p.count("recovery_s", d.Seconds())
	p.count("recoveries", 1)
	p.count("recovery_records", float64(rec.Stats().RecoveryReplayed))
	if err := r.checkBank(rec, ledger); err != nil {
		r.gate("bank round %d: %v", n, err)
	}
	return nil
}

// bankConn runs one connection's closed loop: each transfer is sent only
// after the previous one is answered. Failures are counted, never retried.
func (r *run) bankConn(tr *tracer, cl *td.ServerClient, ops []transfer) (*bankLedger, []request, []float64) {
	l := newLedger()
	var reqs []request
	lat := make([]float64, 0, len(ops))
	for _, t := range ops {
		goal := t.goal()
		start := time.Now()
		res, err := cl.Exec(goal)
		end := time.Now()
		lat = append(lat, float64(end.Sub(start))/1e6)
		r.out.record(err)
		if tr != nil {
			reqs = append(reqs, request{span: tr.add(0, 0, "client.EXEC", start, end), goal: goal, start: start, end: end})
		}
		if err != nil {
			continue
		}
		l.delta[t.From]--
		l.delta[t.To]++
		l.acked++
		l.maxLSN = max(l.maxLSN, res.Version)
	}
	return l, reqs, lat
}

// checkBank is the bank-durable correctness gate, run on the recovered
// server: every balance matches the ledger of acknowledged transfers, money
// is conserved, and the recovered version is the last acknowledged LSN,
// which is the fact-load commit plus one LSN per acknowledged transfer.
// The same checks are then fed a deliberately wrong ledger, which they must
// reject.
func (r *run) checkBank(srv *td.Server, l *bankLedger) error {
	balances, err := queryBalances(srv)
	if err != nil {
		return err
	}
	if err := checkRecovered(srv.Version(), balances, l); err != nil {
		return err
	}
	wrong := newLedger()
	wrong.merge(l)
	wrong.delta[1]++
	if checkRecovered(srv.Version(), balances, wrong) == nil {
		r.gate("bank self-test: the ledger gate accepted a ledger with one unit too many")
	}
	wrong = newLedger()
	wrong.merge(l)
	wrong.maxLSN++
	wrong.acked++
	if checkRecovered(srv.Version(), balances, wrong) == nil {
		r.gate("bank self-test: the version gate accepted an acknowledged LSN past the recovered version")
	}
	return nil
}

func checkRecovered(version uint64, balances map[int]int, l *bankLedger) error {
	if version != l.maxLSN {
		return fmt.Errorf("recovered version %d, last acknowledged LSN %d", version, l.maxLSN)
	}
	if want := uint64(1 + l.acked); l.maxLSN != want {
		return fmt.Errorf("last acknowledged LSN %d, want fact load + %d transfers = %d", l.maxLSN, l.acked, want)
	}
	return checkBalances(balances, l)
}

func queryBalances(srv *td.Server) (map[int]int, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl, err := td.DialServer(addr.String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	sols, err := cl.Query("account(A, B)", 0)
	if err != nil {
		return nil, fmt.Errorf("query balances: %w", err)
	}
	out := make(map[int]int, len(sols))
	for _, s := range sols {
		a, err1 := strconv.Atoi(s["A"])
		b, err2 := strconv.Atoi(s["B"])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("balance row %v is not numeric", s)
		}
		if _, dup := out[a]; dup {
			return nil, fmt.Errorf("account %d has two balances", a)
		}
		out[a] = b
	}
	return out, nil
}

// checkBalances compares recovered balances with the ledger.
func checkBalances(balances map[int]int, l *bankLedger) error {
	if len(balances) != bankAccounts {
		return fmt.Errorf("%d accounts recovered, want %d", len(balances), bankAccounts)
	}
	total := 0
	for a := 1; a <= bankAccounts; a++ {
		b, ok := balances[a]
		if !ok {
			return fmt.Errorf("account %d missing after recovery", a)
		}
		if want := bankBalance + l.delta[a]; b != want {
			return fmt.Errorf("account %d holds %d, ledger of acknowledged transfers says %d", a, b, want)
		}
		total += b
	}
	if want := bankAccounts * bankBalance; total != want {
		return fmt.Errorf("total %d, want %d (money not conserved)", total, want)
	}
	return nil
}
