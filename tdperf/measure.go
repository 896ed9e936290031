package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	td "repro"
)

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = append([]float64(nil), vals...)
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func mean(vals []float64) float64 { return ratio(sum(vals), float64(len(vals))) }

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// ratio is num/den, or 0 when den is 0 (the layer did no work of that kind).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// outcome tallies attempted and failed operations, failures per error code.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	codes     map[string]int
}

// record books one attempted operation and, if err is not nil, its failure.
func (o *outcome) record(err error) {
	if err == nil {
		o.mu.Lock()
		o.attempted++
		o.mu.Unlock()
		return
	}
	o.recordCode(errCode(err))
}

// recordCode books one attempted operation that failed with code.
func (o *outcome) recordCode(code string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	if o.codes == nil {
		o.codes = make(map[string]int)
	}
	o.codes[code]++
}

// errCode names an operation failure: the server's error code, or
// "transport" for a failure below the protocol.
func errCode(err error) string {
	var se *td.ServerError
	if errors.As(err, &se) {
		return se.Code
	}
	return "transport"
}

// rtStats is a reading of the Go runtime's counters.
type rtStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjs       uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		allocObjs:  s[3].Value.Uint64(),
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocBytes + b.allocBytes, a.allocObjs + b.allocObjs}
}

// heapWatch samples the Go heap's object bytes (live objects and garbage
// not yet swept) every few milliseconds while a timed phase runs and keeps
// the peak. Sampling happens on its own goroutine, outside the timed calls.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak heap in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// settle collects garbage left by the previous phase, so each timed phase
// starts from the same heap.
func settle() { runtime.GC() }

// promValues reads every sample of a server's Prometheus text, keyed by
// series name with labels.
func promValues(srv *td.Server) map[string]float64 {
	var buf bytes.Buffer
	_ = srv.Metrics().WriteText(&buf) // writes to a bytes.Buffer cannot fail
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// verbLatency returns the server-side handling time (sum µs, count) of one
// verb between two Prometheus readings.
func verbLatency(before, after map[string]float64, verb string) (sumUs, n float64) {
	lbl := `{verb="` + verb + `"}`
	return after["td_request_latency_us_sum"+lbl] - before["td_request_latency_us_sum"+lbl],
		after["td_request_latency_us_count"+lbl] - before["td_request_latency_us_count"+lbl]
}
