// Command tdperf is the repository's end-to-end benchmark. It drives the
// Transaction Datalog server over loopback TCP (lab-serial, lab-mixed,
// bank-durable) and the engine and simulator directly (paper-search),
// checks every output, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash tdperf/run.sh --workload lab-serial --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, reports the per-layer metrics and writes the spans to
// the build directory. See BENCHMARK.json for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "lab-serial, paper-search, lab-mixed or bank-durable")
	seed := flag.Int64("seed", 1, "seed of the generated operations")
	seconds := flag.Float64("seconds", 10, "timed seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch store files and spans")
	flag.Parse()
	if err := bench(*workload, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "tdperf:", err)
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(workload string, seed int64, seconds float64, trace bool, dir string) error {
	r := &run{workload: workload, seed: seed}
	rounds := map[string]func(int, bool) error{
		"bank-durable": r.bankRound,
		"lab-serial":   func(n int, traced bool) error { return r.labRound(n, traced, 1) },
		"lab-mixed":    func(n int, traced bool) error { return r.labRound(n, traced, 2) },
		"paper-search": r.paperRound,
	}
	round, ok := rounds[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := checkStreams(seed); err != nil {
		r.gate("generation: %v", err)
	}
	work, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	r.work = work
	defer os.RemoveAll(work)
	if trace {
		r.tr = newTracer()
	}
	if err := r.rounds(seconds, trace, round); err != nil {
		return err
	}

	res := result{Correct: len(r.gateErrs) == 0, Attempted: r.out.attempted, Failed: r.out.failed}
	if trace {
		tput := func(p *phase) float64 { return float64(p.ops) / p.measured.Seconds() }
		res.Metrics = r.layers(&r.traced, tput(&r.plain)/tput(&r.traced)-1)
		path := spansPath(dir, workload, seed)
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	} else {
		res.Metrics = r.endToEnd(&r.plain)
		// The counters are read in every run; an untraced run prints them
		// for the record, without the span-derived stage times.
		printMetrics("layers (counters)", r.layers(&r.plain, 0))
	}
	r.report()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report prints the human-readable part of the result: rounds, sample
// counts, failures by code and gate failures.
func (r *run) report() {
	p := &r.plain
	fmt.Printf("workload %s seed %d: %d rounds (%d traced), %.2fs timed, setup median %.4f s (min %.4f, max %.4f)\n",
		r.workload, r.seed, p.rounds+r.traced.rounds, r.traced.rounds, (p.measured + r.traced.measured).Seconds(),
		quantile(r.setupS, 0.5), quantile(r.setupS, 0), quantile(r.setupS, 1))
	fmt.Printf("  ops/s by round: %.1f\n  peak heap MiB by round: %.1f\n", p.rates, p.peakMiB)
	for _, c := range classes {
		if k := len(p.lat[c]); k > 0 {
			fmt.Printf("  %s: %d untraced samples (p99 has %d beyond it)\n", c, k, k/100)
		}
	}
	fmt.Printf("  attempted %d, failed %d", r.out.attempted, r.out.failed)
	codes := make([]string, 0, len(r.out.codes))
	for c := range r.out.codes {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf(", %s=%d", c, r.out.codes[c])
	}
	fmt.Println()
	for _, e := range r.gateErrs {
		fmt.Println("  GATE FAILED:", e)
	}
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
