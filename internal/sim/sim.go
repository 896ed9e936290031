// Package sim is the operational workflow simulator: it runs Transaction
// Datalog goals the way a production workflow engine would, rather than the
// way a theorem prover would.
//
// Where the proof-theoretic engine (package engine) backtracks over every
// interleaving to decide executional entailment, the simulator makes
// committed choices and executes concurrent composition with real
// goroutines over one shared, lock-protected database:
//
//   - each branch of "|" runs in its own goroutine; all must complete;
//   - a query that finds no matching tuple BLOCKS until another process
//     changes the database (one process reads what another writes — the
//     paper's database-mediated communication, realized with a condition
//     variable);
//   - rule selection is guarded and atomic: the body's leading tests plus
//     the deletions immediately following them execute as one atomic
//     test-and-consume step, exactly a Petri-net transition firing — this
//     is what makes the shared-resource idiom of Example 3.3
//     (available(A), del.available(A)) race-free;
//   - iso(G) runs G under a global isolation lock, serializing it against
//     every other isolated block;
//   - if every live process is blocked, the run fails with ErrDeadlock;
//   - user-supplied monitors observe the database after every update and
//     can fail the run when an invariant breaks.
//
// The simulator is the "simulation" side of the paper's title examples
// (3.2–3.4); the prover is its declarative twin.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/term"
)

// Errors reported by runs.
var (
	// ErrDeadlock: every live process is blocked on a query and no further
	// database change can unblock them.
	ErrDeadlock = errors.New("sim: deadlock: all processes blocked")
	// ErrTimeout: the run exceeded Options.Timeout.
	ErrTimeout = errors.New("sim: timeout")
	// ErrOpBudget: the run exceeded Options.MaxOps elementary operations.
	ErrOpBudget = errors.New("sim: operation budget exhausted")
	// ErrNoRule: a call had no rule whose guard could ever succeed
	// (unknown predicate).
	ErrNoRule = errors.New("sim: call of undefined predicate")
)

// MonitorFunc observes the database after an update, under the database
// lock. Returning an error fails the run (invariant violation).
type MonitorFunc func(d *db.DB) error

// Options configure a simulation run.
type Options struct {
	// Seed drives the committed-choice randomization (rule order and tuple
	// choice). Runs with the same seed, program, and goal are reproducible
	// up to goroutine scheduling of independent branches.
	Seed int64
	// Shuffle randomizes rule and tuple choice; when false the first
	// matching rule/tuple in deterministic order is taken.
	Shuffle bool
	// Timeout bounds wall-clock run time (0 = 10s).
	Timeout time.Duration
	// MaxOps bounds the number of elementary operations (0 = 10M).
	MaxOps int64
	// Trace records every executed elementary operation.
	Trace bool
	// Monitors run after every update.
	Monitors []MonitorFunc
}

// Event is one executed elementary operation.
type Event struct {
	Seq  int64
	Task int // process id (0 = root)
	Op   string
	Atom string
}

func (e Event) String() string {
	return fmt.Sprintf("[%d p%d] %s %s", e.Seq, e.Task, e.Op, e.Atom)
}

// Result reports a finished run.
type Result struct {
	// Completed is true when the whole goal ran to completion.
	Completed bool
	// Err is the failure cause when Completed is false.
	Err error
	// Final is the database after the run (the simulator's own copy).
	Final *db.DB
	// Events is the operation trace (when Options.Trace).
	Events []Event
	// Ops counts executed elementary operations.
	Ops int64
	// Spawned counts processes created (including the root).
	Spawned int
}

// Sim runs goals of one program.
type Sim struct {
	prog *ast.Program
	opts Options
}

// New returns a simulator for prog.
func New(prog *ast.Program, opts Options) *Sim {
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.MaxOps == 0 {
		opts.MaxOps = 10_000_000
	}
	return &Sim{prog: prog, opts: opts}
}

// run is the shared state of one simulation run.
type run struct {
	s   *Sim
	d   *db.DB
	ren *term.Renamer
	// rn is the run's one Renaming, reset for every rule attempt. Rule
	// selection runs under mu, and an attempt renames head and body before
	// the next begins.
	rn *term.Renaming

	mu      sync.Mutex
	cond    *sync.Cond
	version int64 // bumped on every db change
	live    int   // running processes
	// parked maps a waiting process to the database version it last
	// evaluated its wait predicate against. A run is deadlocked exactly
	// when every live process is parked against the *current* version: all
	// of them have seen the latest database and found their condition
	// false, and nobody is left to change it. Comparing versions avoids
	// the classical race of counting a signaled-but-not-yet-awake waiter
	// as blocked.
	parked map[int]int64
	failed error // first failure; nil-checked under mu
	done   bool  // run finished (success or failure)

	isoMu sync.Mutex // global isolation lock

	ops     int64
	seq     int64
	spawned int
	events  []Event

	rngMu sync.Mutex
	rng   *rand.Rand

	deadline time.Time
}

// Run executes goal against a private clone of d0. d0 itself is never
// modified.
func (s *Sim) Run(goal ast.Goal, d0 *db.DB) *Result {
	goal, err := s.prog.ResolveGoal(goal)
	if err != nil {
		return &Result{Err: err, Final: d0.Clone()}
	}
	r := &run{
		s:        s,
		d:        d0.Clone(),
		ren:      term.NewRenamer(s.prog.VarHigh + 1_000_000),
		rng:      rand.New(rand.NewSource(s.opts.Seed)),
		deadline: time.Now().Add(s.opts.Timeout),
	}
	r.rn = r.ren.NewRenaming()
	r.cond = sync.NewCond(&r.mu)
	r.parked = make(map[int]int64)
	r.d.ResetTrail()

	// Watchdog: wake blocked processes when the deadline passes.
	stopWatch := make(chan struct{})
	go func() {
		t := time.NewTimer(s.opts.Timeout)
		defer t.Stop()
		select {
		case <-t.C:
			r.fail(ErrTimeout)
		case <-stopWatch:
		}
	}()

	r.mu.Lock()
	r.live = 1
	r.spawned = 1
	r.mu.Unlock()

	env := term.NewEnv()
	err = r.exec(goal, env, 0, false)

	r.mu.Lock()
	r.done = true
	if err != nil && r.failed == nil {
		r.failed = err
	}
	failure := r.failed
	r.mu.Unlock()
	close(stopWatch)

	res := &Result{
		Completed: failure == nil,
		Err:       failure,
		Final:     r.d,
		Events:    r.events,
		Ops:       r.ops,
		Spawned:   r.spawned,
	}
	return res
}

// fail records the first failure and wakes everyone.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.failed == nil && !r.done {
		r.failed = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// failedNow returns the recorded failure, if any (locked).
func (r *run) failedNow() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

func (r *run) record(task int, op string, atom string) {
	if !r.s.opts.Trace {
		return
	}
	r.seq++
	r.events = append(r.events, Event{Seq: r.seq, Task: task, Op: op, Atom: atom})
}

// spendOp consumes one elementary operation from the budget. Caller holds mu.
func (r *run) spendOp() error {
	r.ops++
	if r.ops > r.s.opts.MaxOps {
		if r.failed == nil {
			r.failed = ErrOpBudget
		}
		r.cond.Broadcast()
		return ErrOpBudget
	}
	return nil
}

// bump publishes a db change. Caller holds mu.
func (r *run) bump() {
	r.version++
	r.cond.Broadcast()
}

// runMonitors runs invariant monitors; caller holds mu.
func (r *run) runMonitors() error {
	for _, m := range r.s.opts.Monitors {
		if err := m(r.d); err != nil {
			if r.failed == nil {
				r.failed = fmt.Errorf("sim: invariant violated: %w", err)
			}
			r.cond.Broadcast()
			return r.failed
		}
	}
	return nil
}

// exec runs goal to completion in the current process. task is the process
// id; inIso marks execution inside an isolation block (isolation lock held
// by an ancestor).
func (r *run) exec(g ast.Goal, env *term.Env, task int, inIso bool) error {
	switch g := g.(type) {
	case ast.True:
		return nil

	case *ast.Seq:
		for _, sub := range g.Goals {
			if err := r.exec(sub, env, task, inIso); err != nil {
				return err
			}
		}
		return nil

	case *ast.Conc:
		return r.execConc(g, env, task, inIso)

	case *ast.Iso:
		if inIso {
			// Already isolated by an ancestor; run inline.
			return r.exec(g.Body, env, task, true)
		}
		r.isoMu.Lock()
		defer r.isoMu.Unlock()
		return r.exec(g.Body, env, task, true)

	case *ast.Builtin:
		r.mu.Lock()
		if err := r.spendOp(); err != nil {
			r.mu.Unlock()
			return err
		}
		ok, err := ast.EvalBuiltin(g, env)
		r.record(task, "builtin", env.ResolveAtom(term.Atom{Pred: g.Name, Args: g.Args}).String())
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if !ok {
			return fmt.Errorf("sim: builtin %s failed (committed-choice execution cannot backtrack)", g)
		}
		return nil

	case *ast.Empty:
		return r.waitFor(task, func() bool {
			return r.d.IsEmpty(g.Pred)
		}, func() {
			r.record(task, "empty", g.Pred)
		})

	case *ast.Lit:
		switch g.Op {
		case ast.OpIns, ast.OpDel:
			return r.update(g, env, task)
		case ast.OpQuery:
			return r.blockingQuery(g, env, task)
		case ast.OpCall:
			return r.call(g, env, task, inIso)
		}
	}
	return fmt.Errorf("sim: unsupported goal %T", g)
}

// update executes an insertion or deletion atomically.
func (r *run) update(g *ast.Lit, env *term.Env, task int) error {
	atom := env.ResolveAtom(g.Atom)
	if !atom.IsGround() {
		return fmt.Errorf("sim: update %s with unbound variable", g)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed != nil {
		return r.failed
	}
	if err := r.spendOp(); err != nil {
		return err
	}
	if g.Op == ast.OpIns {
		r.d.Insert(atom.Pred, atom.Args)
		r.record(task, "ins", atom.String())
	} else {
		r.d.Delete(atom.Pred, atom.Args)
		r.record(task, "del", atom.String())
	}
	r.d.ResetTrail()
	r.bump()
	return r.runMonitors()
}

// waitFor blocks until pred() holds (evaluated under the lock), the run
// fails, or deadlock/timeout strikes. onOK runs under the lock when pred
// first holds.
func (r *run) waitFor(task int, pred func() bool, onOK func()) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.failed != nil {
			return r.failed
		}
		if err := r.spendOp(); err != nil {
			return err
		}
		if pred() {
			onOK()
			return r.failed // a monitor may have failed during pred
		}
		if time.Now().After(r.deadline) {
			if r.failed == nil {
				r.failed = ErrTimeout
			}
			r.cond.Broadcast()
			return r.failed
		}
		r.parked[task] = r.version
		if len(r.parked) == r.live && r.allParkedCurrent() {
			delete(r.parked, task)
			if r.failed == nil {
				r.failed = ErrDeadlock
			}
			r.cond.Broadcast()
			return r.failed
		}
		r.cond.Wait()
		delete(r.parked, task)
	}
}

// allParkedCurrent reports whether every parked process last evaluated its
// condition against the current database version. Caller holds mu.
func (r *run) allParkedCurrent() bool {
	for _, v := range r.parked {
		if v != r.version {
			return false
		}
	}
	return true
}

// blockingQuery matches g against the database, committing to one matching
// tuple (random under Shuffle); with no match it blocks until the database
// changes.
func (r *run) blockingQuery(g *ast.Lit, env *term.Env, task int) error {
	return r.waitFor(task, func() bool {
		return r.tryMatch(g.Atom, env)
	}, func() {
		r.record(task, "query", env.ResolveAtom(g.Atom).String())
	})
}

// tryMatch attempts to unify g against some stored tuple, committing the
// binding. Caller holds mu.
func (r *run) tryMatch(a term.Atom, env *term.Env) bool {
	var rows [][]term.Term
	r.d.Scan(a.Pred, a.Args, env, func() bool {
		rows = append(rows, env.ResolveArgs(a.Args))
		return true
	})
	if len(rows) == 0 {
		return false
	}
	pick := 0
	if r.s.opts.Shuffle && len(rows) > 1 {
		r.rngMu.Lock()
		pick = r.rng.Intn(len(rows))
		r.rngMu.Unlock()
	}
	return env.UnifyArgs(a.Args, rows[pick])
}

// call performs committed-choice rule selection: the body's guard (leading
// queries, builtins, emptiness tests, and the deletions that immediately
// follow them) executes atomically; with no fireable rule the process
// blocks until the database changes.
func (r *run) call(g *ast.Lit, env *term.Env, task int, inIso bool) error {
	rules := r.s.prog.RulesFor(g.Atom.Pred, len(g.Atom.Args))
	if len(rules) == 0 {
		return fmt.Errorf("%w: %s/%d", ErrNoRule, g.Atom.Pred, len(g.Atom.Args))
	}
	var rest ast.Goal
	var renv *term.Env
	var chosenHead term.Atom
	err := r.waitFor(task, func() bool {
		order := make([]int, len(rules))
		for i := range order {
			order[i] = i
		}
		if r.s.opts.Shuffle {
			r.rngMu.Lock()
			r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			r.rngMu.Unlock()
		}
		for _, ri := range order {
			rule := rules[ri]
			rn := r.rn
			rn.Reset()
			head := rn.Atom(rule.Head)
			body := ast.Rename(rule.Body, rn)
			tryEnv := term.NewEnv()
			// Bind head against the (resolved) call.
			call := env.ResolveAtom(g.Atom)
			if !tryEnv.UnifyAtoms(head, call) {
				continue
			}
			guard, tail := splitGuard(body)
			dbMark := r.d.Mark()
			if r.fireGuard(guard, tryEnv) {
				r.d.ResetTrail()
				rest = tail
				renv = tryEnv
				chosenHead = head
				r.record(task, "call", tryEnv.ResolveAtom(head).String())
				r.bump() // guard may have consumed tuples
				r.runMonitors()
				return true
			}
			r.d.Undo(dbMark)
		}
		return false
	}, func() {})
	if err != nil {
		return err
	}
	if err := r.exec(rest, renv, task, inIso); err != nil {
		return err
	}
	// Export the rule's bindings to the caller: the call's arguments are the
	// only variables shared across the call boundary, and they can only have
	// become more bound (by the guard or by the body).
	for i := range g.Atom.Args {
		if !env.Unify(g.Atom.Args[i], renv.Walk(chosenHead.Args[i])) {
			return fmt.Errorf("sim: output binding conflict at %s", env.ResolveAtom(g.Atom))
		}
	}
	return nil
}

// splitGuard splits a rule body into its atomic guard — the maximal leading
// sequence of queries, builtins, emptiness tests, and then deletions — and
// the remaining goal. Insertions, calls, concurrency, and isolation end the
// guard.
func splitGuard(body ast.Goal) (guard []ast.Goal, tail ast.Goal) {
	seq, ok := body.(*ast.Seq)
	if !ok {
		if isGuardLit(body, false) {
			return []ast.Goal{body}, ast.True{}
		}
		return nil, body
	}
	i := 0
	delsSeen := false
	for i < len(seq.Goals) {
		g := seq.Goals[i]
		if !isGuardLit(g, delsSeen) {
			break
		}
		if l, isLit := g.(*ast.Lit); isLit && l.Op == ast.OpDel {
			delsSeen = true
		}
		guard = append(guard, g)
		i++
	}
	return guard, ast.NewSeq(seq.Goals[i:]...)
}

// isGuardLit reports whether g may be part of a guard. After the first
// deletion only further deletions are allowed (test-and-consume shape).
func isGuardLit(g ast.Goal, delsSeen bool) bool {
	switch g := g.(type) {
	case *ast.Builtin, *ast.Empty:
		return !delsSeen
	case *ast.Lit:
		switch g.Op {
		case ast.OpQuery:
			return !delsSeen
		case ast.OpDel:
			return true
		}
	}
	return false
}

// fireGuard atomically evaluates a guard under the lock: queries must
// match (committing bindings), builtins must hold, deletions must remove a
// present tuple. Returns false (leaving bindings partially made but the
// database restored by the caller) when any element fails. Caller holds mu.
func (r *run) fireGuard(guard []ast.Goal, env *term.Env) bool {
	for _, g := range guard {
		switch g := g.(type) {
		case *ast.Lit:
			switch g.Op {
			case ast.OpQuery:
				if !r.tryMatch(g.Atom, env) {
					return false
				}
			case ast.OpDel:
				atom := env.ResolveAtom(g.Atom)
				if !atom.IsGround() {
					return false
				}
				// Within a guard, deleting an absent tuple fails the guard:
				// the deletion is a consumption, as in a Petri-net firing.
				if !r.d.Delete(atom.Pred, atom.Args) {
					return false
				}
			}
		case *ast.Builtin:
			ok, err := ast.EvalBuiltin(g, env)
			if err != nil || !ok {
				return false
			}
		case *ast.Empty:
			if !r.d.IsEmpty(g.Pred) {
				return false
			}
		}
	}
	return true
}

// execConc runs each branch in its own goroutine. Branch goals must not
// share unbound variables (the committed simulator cannot coordinate
// bindings across processes); sharing ground terms is of course fine.
func (r *run) execConc(c *ast.Conc, env *term.Env, task int, inIso bool) error {
	resolved := make([]ast.Goal, len(c.Goals))
	for i, g := range c.Goals {
		resolved[i] = resolveGoal(g, env)
	}
	if v := sharedUnboundVar(resolved); v != "" {
		return fmt.Errorf("sim: concurrent branches share unbound variable %s; bind it before spawning", v)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(resolved))
	ids := make([]int, len(resolved))
	r.mu.Lock()
	for i := range resolved {
		r.spawned++
		ids[i] = r.spawned - 1
	}
	// The parent waits for its branches, so the branches replace it in the
	// liveness count. The LAST branch to finish transfers its liveness back
	// to the parent rather than decrementing — otherwise there is a window
	// where the resumable parent is invisible to the deadlock detector and
	// parked siblings would declare a false deadlock.
	r.live += len(resolved) - 1
	remaining := len(resolved)
	r.mu.Unlock()

	for i := range resolved {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			benv := term.NewEnv()
			errs[i] = r.exec(resolved[i], benv, ids[i], inIso)
			r.mu.Lock()
			remaining--
			if remaining > 0 {
				r.live--
				r.cond.Broadcast()
			}
			r.mu.Unlock()
			if errs[i] != nil {
				r.fail(errs[i])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resolveGoal substitutes current bindings into g, leaving unbound
// variables in place.
func resolveGoal(g ast.Goal, env *term.Env) ast.Goal {
	switch g := g.(type) {
	case ast.True:
		return g
	case *ast.Lit:
		return &ast.Lit{Op: g.Op, Atom: env.ResolveAtom(g.Atom)}
	case *ast.Empty:
		return g
	case *ast.Builtin:
		return &ast.Builtin{Name: g.Name, Args: env.ResolveArgs(g.Args)}
	case *ast.Seq:
		goals := make([]ast.Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = resolveGoal(sub, env)
		}
		return &ast.Seq{Goals: goals}
	case *ast.Conc:
		goals := make([]ast.Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = resolveGoal(sub, env)
		}
		return &ast.Conc{Goals: goals}
	case *ast.Iso:
		return &ast.Iso{Body: resolveGoal(g.Body, env)}
	default:
		return g
	}
}

// sharedUnboundVar returns the name of a variable occurring unbound in two
// different branches, or "".
func sharedUnboundVar(branches []ast.Goal) string {
	seen := make(map[int64]int)
	names := make(map[int64]string)
	for i, b := range branches {
		for _, v := range ast.Vars(b, nil) {
			id := v.VarID()
			if prev, ok := seen[id]; ok && prev != i {
				return names[id]
			}
			seen[id] = i
			names[id] = v.VarName()
		}
	}
	return ""
}

// SortedEvents returns events ordered by sequence number (they are recorded
// in order, but this is explicit for readers).
func SortedEvents(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
