package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	td "repro"
	"repro/internal/term"
)

// phase accumulates the timed phases of one kind of round (traced or not).
type phase struct {
	rounds   int
	measured time.Duration
	ops      int
	lat      map[string][]float64 // client-observed latency in ms, by class
	rt       rtStats
	interned int
	peakMiB  []float64          // per round
	rates    []float64          // operations per second, per round
	maxDepth int                // deepest derivation of any paper task
	n        map[string]float64 // layer counters summed over rounds
}

func (p *phase) count(name string, v float64) {
	if p.n == nil {
		p.n = make(map[string]float64)
	}
	p.n[name] += v
}

func (p *phase) addLat(class string, ms []float64) {
	if p.lat == nil {
		p.lat = make(map[string][]float64)
	}
	p.lat[class] = append(p.lat[class], ms...)
}

// run is one invocation of the benchmark: a sequence of rounds, each of
// which sets up from scratch, sends a fixed, seeded number of operations
// and checks what came back.
type run struct {
	workload string
	seed     int64
	work     string // scratch directory for store files
	out      outcome
	setupS   []float64
	plain    phase
	traced   phase
	tr       *tracer // spans of traced rounds; nil when the run is untraced
	gateErrs []string
	mu       sync.Mutex
}

func (r *run) phase(traced bool) *phase {
	if traced {
		return &r.traced
	}
	return &r.plain
}

// tracerFor returns the tracer a round records into (nil for untraced
// rounds, so their spans cost nothing).
func (r *run) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// gate records a failed correctness check. The run then reports correct =
// false; the first few messages are printed.
func (r *run) gate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gateErrs) < 20 {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	} else if len(r.gateErrs) == 20 {
		r.gateErrs = append(r.gateErrs, "(further gate failures omitted)")
	}
}

// timedPhase wraps the closed loop of one round, which returns the number
// of operations it completed: it settles the heap, reads the runtime and
// interning counters around the loop, watches the peak heap, and books the
// elapsed time and rate.
func (r *run) timedPhase(p *phase, body func() int) {
	settle()
	rt0 := readRuntime()
	in0 := term.InternedCount()
	hw := watchHeap()
	start := time.Now()
	ops := body()
	elapsed := time.Since(start)
	peak := hw.end()
	p.rt = p.rt.add(readRuntime().sub(rt0))
	p.interned += term.InternedCount() - in0
	p.peakMiB = append(p.peakMiB, peak)
	p.rates = append(p.rates, float64(ops)/elapsed.Seconds())
	p.ops += ops
	p.measured += elapsed
	p.rounds++
}

// dialAll opens n TCP connections to addr, each recorded as a span.
func dialAll(tr *tracer, addr string, n int) ([]*td.ServerClient, error) {
	out := make([]*td.ServerClient, 0, n)
	for i := 0; i < n; i++ {
		var c *td.ServerClient
		var err error
		tr.timed("client.Dial", func() { c, err = td.DialServer(addr) })
		if err != nil {
			closeAll(out)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(cs []*td.ServerClient) {
	for _, c := range cs {
		c.Close() // the session ends with the connection; nothing to report
	}
}

// rounds runs round after round until the timed phases add up to seconds,
// with at least minRounds rounds (set-up time is the median over rounds).
// A traced run alternates untraced and traced rounds, so the tracing
// overhead is measured within the run.
func (r *run) rounds(seconds float64, trace bool, round func(n int, traced bool) error) error {
	const minRounds = 3
	for n := 0; ; n++ {
		traced := trace && n%2 == 1
		if err := round(n, traced); err != nil {
			return fmt.Errorf("round %d: %w", n, err)
		}
		total := (r.plain.measured + r.traced.measured).Seconds()
		if n+1 >= minRounds && total >= seconds && (!trace || r.traced.rounds > 0) {
			return nil
		}
	}
}

// roundDir makes a fresh scratch directory for one round's store files.
func (r *run) roundDir(n int) (string, error) {
	dir := fmt.Sprintf("%s/round-%d", r.work, n)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
