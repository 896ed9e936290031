package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	td "repro"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/workflow"
)

// paper-search: no server. Workers each run the same fixed round of the
// paper's constructions through td.Parse, td.NewDefaultEngine / Prove and
// td.NewSimulator / Run: the two-stack machine copying ABWord(8) (Thm 4.4),
// AlternatingQBF(3) (Thm 4.5), seeded 3-CNF instances in the fully bounded
// SAT encoding (Section 5) and the 8-sample genome-lab simulation.

// One worker leaves the second vCPU of a 2-vCPU VM to the GC and the host:
// over five 40 s runs there, op_per_s spread 0.17 of its median with two
// workers and 0.09 with one.
const (
	paperWorkers = 1
	paperPasses  = 2 // passes over the task list per worker and round
	copyWord     = 8
	simSamples   = 8
)

// task is one construction with the oracle its outcome is checked against.
type task struct {
	kind   string // twostack, qbf, sat, sim
	prog   *td.Program
	goal   td.Goal
	check  func(*td.Result, *td.Database) error // engine tasks
	labCfg workflow.LabConfig                   // sim task
}

// paperTasks parses every construction of a round. The two-stack task
// copies the word from stack 1 to stack 2 and then pops stack 2 against
// the content the Go simulator of the same machine ends with, so its proof
// succeeds exactly when the TD construction built that stack.
func paperTasks(tr *tracer, seed int64) ([]task, error) {
	var tasks []task
	parse := func(kind, src, goal string, check func(*td.Result, *td.Database) error) error {
		var prog *td.Program
		var err error
		tr.timed("td.Parse", func() { prog, err = td.Parse(src) })
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		g, _, err := td.ParseGoal(goal, prog.VarHigh)
		if err != nil {
			return fmt.Errorf("%s goal: %w", kind, err)
		}
		tasks = append(tasks, task{kind: kind, prog: prog, goal: g, check: check})
		return nil
	}

	stack, err := copiedStack(machine.ABWord(copyWord))
	if err != nil {
		return nil, err
	}
	src, goal, err := copyCheckSource(machine.ABWord(copyWord), stack)
	if err != nil {
		return nil, err
	}
	if err := parse("twostack", src, goal, expectProof(true, "stack 2 holds the copied word")); err != nil {
		return nil, err
	}

	q := machine.AlternatingQBF(3)
	facts, err := machine.QBFFacts(q)
	if err != nil {
		return nil, err
	}
	if err := parse("qbf", machine.QBFRules+facts, machine.QBFGoal, expectProof(q.Eval(), "the QBF's truth value")); err != nil {
		return nil, err
	}

	for _, cnf := range satStream(seed) {
		facts, err := machine.SATFacts(cnf)
		if err != nil {
			return nil, err
		}
		if err := parse("sat", machine.SATRules+facts, machine.SATGoal, satCheck(cnf)); err != nil {
			return nil, err
		}
	}

	cfg := workflow.DefaultLab(simSamples)
	src, goal, err = workflow.LabSource(cfg)
	if err != nil {
		return nil, err
	}
	if err := parse("sim", src, goal, nil); err != nil {
		return nil, err
	}
	tasks[len(tasks)-1].labCfg = cfg
	return tasks, nil
}

// copiedStack runs machine.Copy in the Go two-stack simulator and returns
// stack 2, top first.
func copiedStack(word []string) ([]string, error) {
	res, err := machine.Copy().Run(word, 100*len(word)+100)
	if err != nil {
		return nil, err
	}
	if !res.Accepted {
		return nil, errors.New("copy machine rejected its input")
	}
	top := make([]string, len(res.Stack2))
	for i, s := range res.Stack2 {
		top[len(top)-1-i] = s
	}
	return top, nil
}

// copyCheckSource compiles the copy machine extended with a read-back of
// stack 2: after the copy it pops expect (top first), then the empty
// stack, and accepts; any other symbol rejects.
func copyCheckSource(word, expect []string) (src, goal string, err error) {
	instrs := []machine.Instr{
		{Label: "mv", Kind: machine.IPop, Stack: machine.S1, Branch: map[string]string{"a": "pa", "b": "pb", machine.Bottom: "k0"}},
		{Label: "pa", Kind: machine.IPush, Stack: machine.S2, Sym: "a", Next: "mv"},
		{Label: "pb", Kind: machine.IPush, Stack: machine.S2, Sym: "b", Next: "mv"},
		{Label: "acc", Kind: machine.IAccept},
	}
	for i, sym := range expect {
		instrs = append(instrs, machine.Instr{Label: fmt.Sprintf("k%d", i), Kind: machine.IPop, Stack: machine.S2,
			Branch: map[string]string{sym: fmt.Sprintf("k%d", i+1)}})
	}
	instrs = append(instrs, machine.Instr{Label: fmt.Sprintf("k%d", len(expect)), Kind: machine.IPop, Stack: machine.S2,
		Branch: map[string]string{machine.Bottom: "acc"}})
	m, err := machine.NewMachine("copycheck", "mv", instrs)
	if err != nil {
		return "", "", err
	}
	return machine.Source(m, word)
}

func expectProof(want bool, what string) func(*td.Result, *td.Database) error {
	return func(res *td.Result, _ *td.Database) error {
		if res.Success != want {
			return fmt.Errorf("proof success %v, but %s says %v", res.Success, what, want)
		}
		return nil
	}
}

// satCheck compares the proof with BruteForce and, when the formula is
// satisfiable, checks the assignment the committed execution left behind.
func satCheck(cnf *machine.CNF) func(*td.Result, *td.Database) error {
	_, sat := cnf.BruteForce()
	return func(res *td.Result, final *td.Database) error {
		if res.Success != sat {
			return fmt.Errorf("proof success %v, BruteForce says satisfiable = %v", res.Success, sat)
		}
		if !sat {
			return nil
		}
		asg := map[string]string{}
		for _, row := range final.Tuples("asg", 2) {
			asg[row[0].String()] = row[1].String()
		}
		for i, cl := range cnf.Clauses {
			ok := false
			for _, l := range cl {
				want := "t"
				if l.Neg {
					want = "f"
				}
				ok = ok || asg[fmt.Sprint(l.Var)] == want
			}
			if !ok {
				return fmt.Errorf("committed assignment %v falsifies clause %d", asg, i+1)
			}
		}
		return nil
	}
}

// taskStats is one worker's engine effort.
type taskStats struct {
	steps, unifs, loops, tables float64
	engineTasks                 float64
	maxDepth                    int
}

func (r *run) paperRound(n int, traced bool) error {
	p, tr := r.phase(traced), r.tracerFor(traced)
	settle()
	t0 := time.Now()
	tasks, err := paperTasks(tr, r.seed)
	if err != nil {
		return err
	}
	engines := make([][]*td.Engine, paperWorkers)
	for w := range engines {
		for _, t := range tasks {
			engines[w] = append(engines[w], td.NewDefaultEngine(t.prog))
		}
	}
	simDB, err := td.DatabaseFor(tasks[len(tasks)-1].prog)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())

	lats := make([][]float64, paperWorkers)
	stats := make([]taskStats, paperWorkers)
	r.timedPhase(p, func() int {
		var wg sync.WaitGroup
		for w := 0; w < paperWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lats[w], stats[w] = r.paperWorker(tr, n, w, tasks, engines[w], simDB)
			}(w)
		}
		wg.Wait()
		return paperWorkers * paperPasses
	})
	for w := range lats {
		p.addLat("pass", lats[w])
		st := stats[w]
		p.count("tasks", float64(paperPasses*len(tasks)))
		p.count("steps", st.steps)
		p.count("unifs", st.unifs)
		p.count("loop_hits", st.loops)
		p.count("table_hits", st.tables)
		p.count("engine_tasks", st.engineTasks)
		p.maxDepth = max(p.maxDepth, st.maxDepth)
	}
	if n == 0 {
		r.paperSelfTest(tasks, simDB)
	}
	return nil
}

// paperWorker runs paperPasses passes over the task list, checking every
// outcome. A pass is the workload's operation; its latency is the sum of
// its tasks'.
func (r *run) paperWorker(tr *tracer, round, w int, tasks []task, engines []*td.Engine, simDB *td.Database) ([]float64, taskStats) {
	var st taskStats
	lat := make([]float64, 0, paperPasses)
	for pass := 0; pass < paperPasses; pass++ {
		passID := tr.id()
		passStart := time.Now()
		for i, t := range tasks {
			taskID := tr.id()
			start := time.Now()
			err := r.runTask(tr, passID, taskID, t, engines[i], simDB, int64(round*1000+pass*10+w), &st)
			tr.record(taskID, passID, passID, "task."+t.kind, start, time.Now())
			if err != nil {
				r.gate("paper %s: %v", t.kind, err)
			}
		}
		end := time.Now()
		lat = append(lat, float64(end.Sub(passStart))/1e6)
		tr.record(passID, 0, passID, "paper.pass", passStart, end)
	}
	return lat, st
}

// runTask runs one construction and checks its outcome. An engine or
// simulator error counts as a failed operation; a wrong outcome fails the
// run's correctness gate.
func (r *run) runTask(tr *tracer, req, parent uint64, t task, eng *td.Engine, simDB *td.Database, simSeed int64, st *taskStats) error {
	if t.kind == "sim" {
		start := time.Now()
		res := td.NewSimulator(t.prog, td.SimOptions{Timeout: time.Minute, Seed: simSeed}).Run(t.goal, simDB)
		tr.add(parent, req, "sim.Run", start, time.Now())
		if !res.Completed {
			r.out.recordCode("sim")
			return nil
		}
		r.out.record(nil)
		return workflow.CheckLabRun(t.labCfg, res.Final)
	}
	d, err := td.DatabaseFor(t.prog)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := eng.Prove(t.goal, d)
	tr.add(parent, req, "engine.Prove."+t.kind, start, time.Now())
	if err != nil {
		r.out.recordCode(engineCode(err))
		return nil
	}
	r.out.record(nil)
	st.steps += float64(res.Stats.Steps)
	st.unifs += float64(res.Stats.Unifications)
	st.loops += float64(res.Stats.LoopHits)
	st.tables += float64(res.Stats.TableHits)
	st.engineTasks++
	st.maxDepth = max(st.maxDepth, res.Stats.MaxDepth)
	return t.check(res, d)
}

func engineCode(err error) string {
	switch {
	case errors.Is(err, engine.ErrBudget):
		return "budget"
	case errors.Is(err, engine.ErrDepth):
		return "depth"
	}
	return "engine"
}

// paperSelfTest feeds every paper gate a deliberately wrong expectation,
// each of which must be caught: every engine task's check is handed the
// opposite outcome, the two-stack construction is proved against a stack 2
// whose top symbol is flipped, and a finished lab simulation is checked
// against one sample too many.
func (r *run) paperSelfTest(tasks []task, simDB *td.Database) {
	for _, t := range tasks {
		if t.check == nil {
			continue
		}
		d, err := td.DatabaseFor(t.prog)
		if err != nil {
			r.gate("paper self-test: %v", err)
			return
		}
		// A check must reject at least one outcome. (For a satisfiable
		// formula it rejects both here: the initial database holds no
		// satisfying assignment.)
		if t.check(&td.Result{Success: true}, d) == nil && t.check(&td.Result{Success: false}, d) == nil {
			r.gate("paper self-test: the %s gate accepted both outcomes", t.kind)
		}
	}

	stack, err := copiedStack(machine.ABWord(copyWord))
	if err != nil {
		r.gate("paper self-test: %v", err)
		return
	}
	flip := map[string]string{"a": "b", "b": "a"}
	wrong := append([]string{flip[stack[0]]}, stack[1:]...)
	src, goal, err := copyCheckSource(machine.ABWord(copyWord), wrong)
	if err != nil {
		r.gate("paper self-test: %v", err)
		return
	}
	res, _, err := td.Run(src, goal)
	if err != nil {
		r.gate("paper self-test: %v", err)
		return
	}
	if expectProof(true, "stack 2 holds the copied word")(res, nil) == nil {
		r.gate("paper self-test: the two-stack gate accepted a stack 2 with its top symbol flipped")
	}

	lab := tasks[len(tasks)-1]
	sim := td.NewSimulator(lab.prog, td.SimOptions{Timeout: time.Minute}).Run(lab.goal, simDB)
	wrongCfg := lab.labCfg
	wrongCfg.Samples++
	if !sim.Completed || workflow.CheckLabRun(wrongCfg, sim.Final) == nil {
		r.gate("paper self-test: the lab-run gate accepted a run with one sample too many")
	}
}
