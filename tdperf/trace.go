package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	td "repro"
)

// The benchmark's own tracing. Spans are recorded around every public call
// the benchmark makes (client verbs, td.Parse, td.Vet, td.Plan,
// td.NewServer, Engine.Prove, Simulator.Run); the server's wide events add
// their stage times as child spans of the client request that caused them.
// Spans stay in memory and are written out when the run ends. A nil
// *tracer records nothing.

// span is one timed interval as written out. Spans of one client request
// share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// rawSpan is a span as the tracer keeps it: the name is an index into the
// tracer's name table, so a rawSpan holds no pointers and hundreds of
// thousands of them cost the garbage collector nothing to scan.
type rawSpan struct {
	id, parent, req uint64
	name            uint16
	start, end      int64
}

func (s *rawSpan) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	names []string
	index map[string]uint16
	spans []rawSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), index: map[string]uint16{}} }

// nameID interns a span name; call with mu held.
func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// id reserves a span id, for a span recorded after its children (0 on a
// nil tracer).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a span under a reserved id. A span with no request id
// starts a request of its own.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if req == 0 {
		req = id
	}
	t.mu.Lock()
	t.spans = append(t.spans, rawSpan{id: id, parent: parent, req: req, name: t.nameID(name),
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, req uint64, name string, start, end time.Time) uint64 {
	id := t.id()
	t.record(id, parent, req, name, start, end)
	return id
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(0, 0, name, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].name == id {
			out = append(out, float64(t.spans[i].dur()))
		}
	}
	return out
}

// stageValues groups the server stage spans under their server.txn parent
// and returns, per stage, one value per transaction in microseconds (zero
// where the transaction spent no measurable time in that stage).
func (t *tracer) stageValues() map[string][]float64 {
	if t == nil {
		return nil
	}
	idx := make(map[uint64]int)
	var txns []map[string]float64
	for i := range t.spans {
		if t.names[t.spans[i].name] == "server.txn" {
			idx[t.spans[i].id] = len(txns)
			txns = append(txns, map[string]float64{})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if j, ok := idx[s.parent]; ok {
			txns[j][t.names[s.name]] += float64(s.dur()) / 1e3
		}
	}
	out := make(map[string][]float64)
	for i, stage := range stageNames {
		vals := make([]float64, len(txns))
		for j, m := range txns {
			vals[j] = m[stageSpans[i]]
		}
		out[stage] = vals
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		if err := enc.Encode(span{ID: s.id, Parent: s.parent, Req: s.req, Name: t.names[s.name], Start: s.start, End: s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageNames are the server's pipeline stages, in order; stageSpans the
// names of their spans.
var (
	stageNames = []string{"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack"}
	stageSpans = func() []string {
		out := make([]string, len(stageNames))
		for i, s := range stageNames {
			out[i] = "server.stage." + s
		}
		return out
	}()
)

// wideSink keeps the server's wide events per session, in emission order.
// A session serves its requests one at a time, so the n-th event of a
// session belongs to the n-th sampled request on its connection.
type wideSink struct {
	mu  sync.Mutex
	evs map[uint64][]td.WideEvent
}

func (w *wideSink) EmitWide(e *td.WideEvent) {
	w.mu.Lock()
	if w.evs == nil {
		w.evs = make(map[uint64][]td.WideEvent)
	}
	w.evs[e.Session] = append(w.evs[e.Session], *e)
	w.mu.Unlock()
}

// request is one EXEC as the benchmark saw it: its goal, client span and
// timing.
type request struct {
	span       uint64
	goal       string
	start, end time.Time
}

// attach matches each connection's committing requests to the wide events
// of the session that served them and records every event's stage times as
// child spans of its client request. A session is matched to the
// connection whose goal sequence its events repeat exactly. It returns how
// many events could not be matched.
func (w *wideSink) attach(t *tracer, conns [][]request) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	unmatched := 0
	used := make(map[int]bool)
	sessions := make([]uint64, 0, len(w.evs))
	for id := range w.evs {
		sessions = append(sessions, id)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i] < sessions[j] })
	for _, id := range sessions {
		evs := w.evs[id]
		match := -1
		for c, reqs := range conns {
			if !used[c] && sameGoals(evs, reqs) {
				match = c
				break
			}
		}
		if match < 0 {
			unmatched += len(evs)
			continue
		}
		used[match] = true
		for i, ev := range evs {
			r := conns[match][i]
			// The server's clock starts after the request frame is read and
			// ends after the response is written; centre it in the client's
			// round trip, then lay the stages end to end inside it.
			total := time.Duration(ev.TotalUs) * time.Microsecond
			start := r.start.Add((r.end.Sub(r.start) - total) / 2)
			txn := t.add(r.span, r.span, "server.txn", start, start.Add(total))
			at := start
			for i, stage := range stageNames {
				d := time.Duration(ev.StageUs[stage]) * time.Microsecond
				if d > 0 {
					t.add(txn, r.span, stageSpans[i], at, at.Add(d))
					at = at.Add(d)
				}
			}
		}
	}
	return unmatched
}

func sameGoals(evs []td.WideEvent, reqs []request) bool {
	if len(evs) != len(reqs) {
		return false
	}
	for i := range evs {
		if evs[i].Goal != reqs[i].goal {
			return false
		}
	}
	return true
}

// spansPath is where a run's spans are written, inside the build
// directory the launcher creates in the checkout.
func spansPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
