package engine

import (
	"cmp"
	"container/list"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/term"
)

// Tabled evaluation: read-set–validated memo tables for derived predicates.
//
// A call to a tabling-eligible derived predicate (update-free,
// hypothetical-free, non-'|' recursion — the certificate
// internal/analysis/plan.go computes) is a pure query over the current
// database state: its answer multiset depends only on the program and on
// the tuples its search reads. Such a call can be answered from a memo
// table instead of re-running proof search.
//
// The memo key is (program, predicate, call pattern): the 128-bit program
// content hash — one MemoStore may serve sessions that loaded different
// programs — the length-prefixed predicate name, and one 8-byte code per
// argument: ground arguments use term.Code (low-3-bit tags 1..4), free
// arguments use memoTagVar (6) with the variable's first-occurrence index
// among the call's distinct free variables, so p(X,X) and p(X,Y) key
// differently. FuzzMemoKey proves this encoding injective.
//
// An entry depends on the reads its fill actually made, not on every
// relation the predicate could reach. While a fill is in flight, each
// query step logs the first-argument index bucket it probes (when the
// first argument is ground) or the whole relation, each empty.p logs the
// predicate, and a nested memo hit appends its own entry's reads. At the
// end of the fill the distinct reads are stored on the entry with the fold
// of their content fingerprints (db.BucketFingerprint, RelFingerprint,
// PredFingerprint); a fill that read more than half of a relation's
// buckets stores one relation-level read instead, which keeps validation
// of scan-like fills as cheap as one relation check. A lookup re-folds
// those fingerprints against its own database — session replicas,
// ASOF-pinned reads and the live store each answer for their own tuples —
// outside the store lock; a mismatch is a miss that drops the entry if it
// is still the current one. Fingerprints are pure functions of
// tuple sets, so replicas holding the same data share entries, rolling a
// mutation back restores hits, and a write to a bucket no fill read
// leaves every entry valid.
//
// Within a fill, the failure table only prunes configurations recorded
// since that fill began: an older entry was explored before the fill's
// read log started, so pruning by it would leave its reads unlogged.
//
// An answer is the projection of one successful execution onto the call's
// distinct free variables: per variable a ground witness term, an alias to
// an earlier variable (the body unified two call variables without
// grounding them), or "left unbound". Duplicate answers are preserved —
// replay emits one success per recorded execution, keeping the answer
// multiset identical to untabled search. The first call under a given key
// fills the table by exhausting the sub-search, then replays; repeat calls
// replay directly.
//
// The memo path is bypassed wherever its semantics would not hold:
// under un-isolated '|' (concTaint — a sibling's update between two
// replayed answers would be invisible), under iterative deepening
// (depthLimit — a cutoff makes the fill non-exhaustive), and under
// parallel search (shared budget / frontier collector). A same-key
// re-entrant call during a fill (recursive tabled predicate) falls through
// to ordinary rule dispatch, which records exactly the untabled answers.
// With Options.Memo nil the prove hot path pays a single nil check.

// memoTagVar is the low-3-bit tag of a free-variable slot in a memo key.
// term.Code uses tags 1..4 for ground terms and never 6, so variable slots
// cannot collide with ground arguments.
const memoTagVar uint64 = 6

// Alias markers in a memo answer slot.
const (
	memoGround  int32 = -1 // slot holds a ground witness term
	memoUnbound int32 = -2 // variable stayed unbound in this answer
)

// memoSlot is one projected variable of one answer: a ground term
// (alias == memoGround), an alias to an earlier distinct variable of the
// same call (alias >= 0), or nothing (memoUnbound).
type memoSlot struct {
	t     term.Term
	alias int32
}

// memoSlotBytes approximates the retained size of one slot (term value +
// slice overhead share) for the store's byte accounting.
const memoSlotBytes = 32

// MemoOptions configure the read-set–validated memo tables
// (Options.Memo). The zero Mode is "auto".
type MemoOptions struct {
	// Mode selects the tabled predicates among the tabling-eligible ones:
	// "auto" (top-K by observed profile cost), "all", "none", or a
	// comma-separated list of predicate names ("hot" or "hot/1").
	Mode string
	// TopK bounds auto mode's selection (0 means DefaultMemoTopK). With no
	// profile observations every eligible predicate is tabled.
	TopK int
	// MaxMB bounds the store's memory (0 means DefaultMemoMaxMB); least
	// recently used entries are evicted beyond it.
	MaxMB int
	// Store, when non-nil, is the (shared) memo store to use — the server
	// hands every session the same store so replicas reuse each other's
	// fills. nil gives the engine a private store.
	Store *MemoStore
	// Profile feeds auto mode: the absorbed per-predicate prover profile
	// (server PROFILE / engine ProfileSnapshot). Selection cost is
	// TimeUs × Calls.
	Profile map[string]PredProfile
}

// Memo defaults.
const (
	DefaultMemoTopK  = 8
	DefaultMemoMaxMB = 64
)

// MemoStats is a point-in-time snapshot of a MemoStore.
type MemoStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
	// Preds holds per-predicate lookup stats, hottest (most hits) first.
	Preds []MemoPredStats `json:"preds,omitempty"`
}

// MemoPredStats is one tabled predicate's lookup record.
type MemoPredStats struct {
	Pred   string `json:"pred"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// MemoStore is an LRU-bounded, mutex-guarded memo table shared across
// engines (and goroutines): the server hands one store to every session so
// snapshot replicas of the same data reuse each other's fills. Entries are
// immutable after insertion; validation and replay read them outside the
// lock.
type MemoStore struct {
	mu       sync.Mutex
	entries  map[string]*memoEntry
	lru      *list.List // front = most recently used
	bytes    int64
	maxBytes int64
	byPred   map[string]*memoPredCounters

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

// memoPredCounters is one tabled predicate's lookup record. Entries point
// at their predicate's cell, so a validated hit counts without the lock.
type memoPredCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// memoRel names one relation a fill read, or (arity < 0) one predicate at
// every arity, read by empty.p. An engine holds one per relation its rules
// read; entries point at them instead of holding names.
type memoRel struct {
	pred  string
	arity int
}

// memoRead is one read of a fill: the first-argument index bucket of rel
// whose first argument has code first, or (first == 0 — codes are never
// 0) the whole relation, or the whole predicate when rel.arity < 0.
type memoRead struct {
	rel   *memoRel
	first uint64
}

// memoReadBytes approximates the retained size of one read.
const memoReadBytes = 16

// memoEntry is one cached call: the reads its fill made and the fold of
// their content fingerprints when the fill ended (an entry is valid only
// while every read is, so one stamp serves all of them and keeps a read to
// 16 bytes), the answer count, and the flat count×nvars slot matrix.
type memoEntry struct {
	key     string
	elem    *list.Element
	pc      *memoPredCounters
	reads   []memoRead
	fp      [2]uint64
	nvars   int
	count   int
	answers []memoSlot
	bytes   int64
}

// NewMemoStore returns an empty store bounded to maxMB megabytes
// (0 means DefaultMemoMaxMB).
func NewMemoStore(maxMB int) *MemoStore {
	if maxMB <= 0 {
		maxMB = DefaultMemoMaxMB
	}
	return &MemoStore{
		entries:  make(map[string]*memoEntry),
		lru:      list.New(),
		maxBytes: int64(maxMB) << 20,
		byPred:   make(map[string]*memoPredCounters),
	}
}

// Counters returns the store's lifetime lookup counters without building a
// full Snapshot — cheap enough for a metrics scrape path.
func (s *MemoStore) Counters() (hits, misses, invalidations, evictions int64) {
	return s.hits.Load(), s.misses.Load(), s.invalidations.Load(), s.evictions.Load()
}

// Usage returns the store's current footprint: answer bytes held and the
// number of cached call entries.
func (s *MemoStore) Usage() (bytes int64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.entries)
}

// predCounters returns the per-predicate cell, creating it. Callers hold mu.
func (s *MemoStore) predCounters(pred string) *memoPredCounters {
	pc := s.byPred[pred]
	if pc == nil {
		pc = &memoPredCounters{}
		s.byPred[pred] = pc
	}
	return pc
}

// lookup returns the entry under key (still in its scratch buffer — the
// conversion in the map index does not allocate), not yet validated, and
// marks it recently used. A missing entry counts as a miss.
func (s *MemoStore) lookup(key []byte, pred string) *memoEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[string(key)]
	if e == nil {
		s.misses.Add(1)
		s.predCounters(pred).misses.Add(1)
		return nil
	}
	s.lru.MoveToFront(e.elem)
	return e
}

// hit counts a lookup whose entry validated.
func (s *MemoStore) hit(e *memoEntry) {
	s.hits.Add(1)
	e.pc.hits.Add(1)
}

// invalidate counts a lookup whose entry failed validation and drops the
// entry unless a concurrent fill or eviction has already replaced it.
func (s *MemoStore) invalidate(e *memoEntry) {
	s.invalidations.Add(1)
	s.misses.Add(1)
	e.pc.misses.Add(1)
	s.mu.Lock()
	if s.entries[e.key] == e {
		s.drop(e)
	}
	s.mu.Unlock()
}

// insert stores a freshly filled entry and returns it, evicting
// least-recently-used entries beyond the byte bound. An entry already
// present under key (a concurrent session filled the same call first) is
// replaced.
func (s *MemoStore) insert(key, pred string, reads []memoRead, fp [2]uint64, nvars, count int, answers []memoSlot) *memoEntry {
	e := &memoEntry{
		key:     key,
		reads:   reads,
		fp:      fp,
		nvars:   nvars,
		count:   count,
		answers: answers,
		bytes:   int64(len(key)) + int64(len(reads))*memoReadBytes + int64(len(answers))*memoSlotBytes + 128,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.pc = s.predCounters(pred)
	if old := s.entries[key]; old != nil {
		s.drop(old)
	}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += e.bytes
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*memoEntry)
		s.drop(victim)
		s.evictions.Add(1)
	}
	return e
}

// drop unlinks e. Callers hold mu.
func (s *MemoStore) drop(e *memoEntry) {
	delete(s.entries, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.bytes
}

// Snapshot returns the store's cumulative counters and per-predicate
// lookup stats, hottest first.
func (s *MemoStore) Snapshot() MemoStats {
	st := MemoStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Invalidations: s.invalidations.Load(),
		Evictions:     s.evictions.Load(),
	}
	s.mu.Lock()
	st.Bytes = s.bytes
	st.Entries = int64(len(s.entries))
	for pred, pc := range s.byPred {
		st.Preds = append(st.Preds, MemoPredStats{Pred: pred, Hits: pc.hits.Load(), Misses: pc.misses.Load()})
	}
	s.mu.Unlock()
	sort.Slice(st.Preds, func(i, j int) bool {
		if st.Preds[i].Hits != st.Preds[j].Hits {
			return st.Preds[i].Hits > st.Preds[j].Hits
		}
		return st.Preds[i].Pred < st.Preds[j].Pred
	})
	return st
}

// engineMemo is the per-engine memo configuration: the shared store, the
// program's content hash, the selected predicates ("name/arity" stats
// labels), and the relations the program's rules read.
type engineMemo struct {
	store          *MemoStore
	progLo, progHi uint64
	preds          map[enginePredArity]string
	rels           map[enginePredArity]*memoRel
}

// splitPredArity splits a "name/arity" certificate label.
func splitPredArity(s string) (string, int, bool) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, false
	}
	return s[:i], n, true
}

// progHash fingerprints the program content with the engine's usual
// dual-FNV streams. Load-time only.
func progHash(prog *ast.Program) (uint64, uint64) {
	const primeLo, primeHi = 1099511628211, 0xff51afd7ed558ccd
	lo := uint64(14695981039346656037)
	hi := uint64(0x9e3779b97f4a7c15)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			lo = (lo ^ uint64(s[i])) * primeLo
			hi = (hi ^ uint64(s[i])) * primeHi
		}
		lo = (lo ^ 0x1f) * primeLo
		hi = (hi ^ 0x1f) * primeHi
	}
	for _, r := range prog.Rules {
		mix(r.Head.String())
		mix(r.Body.String())
	}
	return lo, hi
}

// newEngineMemo compiles the memo configuration: select predicates per
// opts.Mode among the report's tabling-eligible certificates, name the
// relations the rules read, and bind the store. Returns nil when nothing
// is tabled.
func newEngineMemo(prog *ast.Program, rep *analysis.PlanReport, opts *MemoOptions) *engineMemo {
	mode := strings.TrimSpace(opts.Mode)
	if mode == "" {
		mode = "auto"
	}
	if mode == "none" {
		return nil
	}
	var eligible []analysis.PredPlan
	for _, pp := range rep.Predicates {
		if pp.TablingEligible {
			eligible = append(eligible, pp)
		}
	}
	var selected []analysis.PredPlan
	switch mode {
	case "all":
		selected = eligible
	case "auto":
		topK := opts.TopK
		if topK <= 0 {
			topK = DefaultMemoTopK
		}
		score := func(pp analysis.PredPlan) int64 {
			name, _, _ := splitPredArity(pp.Pred)
			pf := opts.Profile[name]
			return pf.TimeUs * pf.Calls
		}
		anyScore := false
		for _, pp := range eligible {
			if score(pp) > 0 {
				anyScore = true
				break
			}
		}
		if !anyScore {
			// Cold start: no observations yet, table everything eligible.
			selected = eligible
			break
		}
		ranked := append([]analysis.PredPlan(nil), eligible...)
		sort.SliceStable(ranked, func(i, j int) bool { return score(ranked[i]) > score(ranked[j]) })
		if len(ranked) > topK {
			ranked = ranked[:topK]
		}
		for _, pp := range ranked {
			if score(pp) > 0 {
				selected = append(selected, pp)
			}
		}
	default: // comma-separated predicate names
		want := make(map[string]bool)
		for _, name := range strings.Split(mode, ",") {
			if name = strings.TrimSpace(name); name != "" {
				want[name] = true
			}
		}
		for _, pp := range eligible {
			name, _, _ := splitPredArity(pp.Pred)
			if want[pp.Pred] || want[name] {
				selected = append(selected, pp)
			}
		}
	}
	if len(selected) == 0 {
		return nil
	}
	em := &engineMemo{
		preds: make(map[enginePredArity]string, len(selected)),
		rels:  make(map[enginePredArity]*memoRel),
	}
	em.progLo, em.progHi = progHash(prog)
	for _, pp := range selected {
		if name, arity, ok := splitPredArity(pp.Pred); ok {
			em.preds[enginePredArity{pred: name, arity: arity}] = pp.Pred
		}
	}
	addRel := func(pred string, arity int) {
		k := enginePredArity{pred: pred, arity: arity}
		if em.rels[k] == nil {
			em.rels[k] = &memoRel{pred: pred, arity: arity}
		}
	}
	for _, r := range prog.Rules {
		ast.Walk(r.Body, func(g ast.Goal) bool {
			switch g := g.(type) {
			case *ast.Lit:
				if g.Op == ast.OpQuery {
					addRel(g.Atom.Pred, len(g.Atom.Args))
				}
			case *ast.Empty:
				addRel(g.Pred, -1)
			}
			return true
		})
	}
	em.store = opts.Store
	if em.store == nil {
		em.store = NewMemoStore(opts.MaxMB)
	}
	return em
}

// MemoStats returns a snapshot of the engine's memo store, or nil when
// tabling is off (or nothing was selected).
func (e *Engine) MemoStats() *MemoStats {
	if e.memo == nil {
		return nil
	}
	st := e.memo.store.Snapshot()
	return &st
}

// MemoTabled returns the tabled predicates ("name/arity", sorted), or nil
// when tabling is off.
func (e *Engine) MemoTabled() []string {
	if e.memo == nil {
		return nil
	}
	out := make([]string, 0, len(e.memo.preds))
	for _, name := range e.memo.preds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// memoLogQuery logs the read of a query step during a fill: the
// first-argument bucket when the first argument is ground, else the whole
// relation.
func (dv *deriv) memoLogQuery(a term.Atom) {
	rel := dv.e.memo.relFor(a.Pred, len(a.Args))
	var first uint64
	if len(a.Args) > 0 {
		if w := dv.env.Walk(a.Args[0]); !w.IsVar() {
			first = w.Code()
		}
	}
	dv.memoLog = append(dv.memoLog, memoRead{rel: rel, first: first})
}

// memoLogEmpty logs the read of an empty.p step during a fill.
func (dv *deriv) memoLogEmpty(pred string) {
	dv.memoLog = append(dv.memoLog, memoRead{rel: dv.e.memo.relFor(pred, -1)})
}

// relFor returns the engine's memoRel for pred/arity (arity < 0: the
// predicate at every arity). A fill's goals are rule bodies, so every
// relation it reads is named; anything else gets an unshared memoRel.
func (em *engineMemo) relFor(pred string, arity int) *memoRel {
	if r := em.rels[enginePredArity{pred: pred, arity: arity}]; r != nil {
		return r
	}
	return &memoRel{pred: pred, arity: arity}
}

// memoReadFP returns the current fingerprint of what r read.
func (dv *deriv) memoReadFP(r *memoRead) [2]uint64 {
	switch {
	case r.rel.arity < 0:
		return dv.d.PredFingerprint(r.rel.pred)
	case r.first != 0:
		return dv.d.BucketFingerprint(r.rel.pred, r.rel.arity, r.first)
	default:
		return dv.d.RelFingerprint(r.rel.pred, r.rel.arity)
	}
}

// memoFold folds the current fingerprints of reads, in order, with the
// engine's usual dual-FNV streams. Fingerprints are pure functions of
// tuple sets and reads are stored sorted, so databases holding the same
// tuples in what was read produce equal folds.
func (dv *deriv) memoFold(reads []memoRead) [2]uint64 {
	const primeLo, primeHi = 1099511628211, 0xff51afd7ed558ccd
	lo := uint64(14695981039346656037)
	hi := uint64(0x9e3779b97f4a7c15)
	for i := range reads {
		f := dv.memoReadFP(&reads[i])
		lo = (lo ^ f[0]) * primeLo
		hi = (hi ^ f[1]) * primeHi
	}
	return [2]uint64{lo, hi}
}

// memoObserve reports a replayed entry's reads to the database's read
// hook, so a transaction's read set covers what the original search read.
// Bucket reads become ReadPrefix observations, which cover every key
// observation the search could have made in the bucket.
func (dv *deriv) memoObserve(reads []memoRead) {
	for i := range reads {
		r := &reads[i]
		switch {
		case r.rel.arity < 0:
			dv.d.ObserveRead(db.ReadPred, r.rel.pred, -1, 0)
		case r.first != 0:
			dv.d.ObserveRead(db.ReadPrefix, r.rel.pred, r.rel.arity, r.first)
		default:
			dv.d.ObserveRead(db.ReadRel, r.rel.pred, r.rel.arity, 0)
		}
	}
}

// memoCompare orders reads by relation, then first-argument code, so a
// relation-level read (first 0) leads its relation's run.
func memoCompare(a, b memoRead) int {
	if c := strings.Compare(a.rel.pred, b.rel.pred); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rel.arity, b.rel.arity); c != 0 {
		return c
	}
	return cmp.Compare(a.first, b.first)
}

// memoStamp turns a fill's logged reads into an entry's read set and its
// stamp: distinct reads only, sorted, bucket reads dropped where a
// relation-level read of the same relation covers them, and bucket reads
// of more than half a relation's buckets collapsed into one
// relation-level read (a DB without an index has no buckets, so all its
// reads collapse). The reads are a fresh slice the entry owns.
func (dv *deriv) memoStamp(log []memoRead) ([]memoRead, [2]uint64) {
	tmp := append(dv.memoScratch[:0], log...)
	slices.SortFunc(tmp, memoCompare)
	out := tmp[:0]
	for i := 0; i < len(tmp); {
		j := i + 1
		for j < len(tmp) && tmp[j].rel.pred == tmp[i].rel.pred && tmp[j].rel.arity == tmp[i].rel.arity {
			j++
		}
		run := tmp[i:j]
		collapse := run[0].first == 0
		if !collapse {
			n := 1
			for k := 1; k < len(run); k++ {
				if run[k].first != run[k-1].first {
					n++
				}
			}
			collapse = 2*n > dv.d.IndexBuckets(run[0].rel.pred, run[0].rel.arity)
		}
		// out compacts tmp in place; it never passes the element being read.
		if collapse {
			out = append(out, memoRead{rel: run[0].rel})
		} else {
			var prev uint64
			for _, r := range run {
				if r.first != prev {
					out = append(out, r)
					prev = r.first
				}
			}
		}
		i = j
	}
	dv.memoScratch = tmp
	reads := append([]memoRead(nil), out...)
	return reads, dv.memoFold(reads)
}

// appendMemoKey encodes the call pattern of g into dst and returns the
// extended buffer plus the call's distinct free variables in
// first-occurrence order. The encoding is injective: 16 bytes of program
// hash, the length-prefixed predicate name, then one 8-byte code per
// argument (ground term code, or variable index tagged memoTagVar).
func (dv *deriv) appendMemoKey(dst []byte, g *ast.Lit, vars []term.Term) ([]byte, []term.Term) {
	em := dv.e.memo
	dst = term.AppendCode(dst, em.progLo)
	dst = term.AppendCode(dst, em.progHi)
	dst = strconv.AppendInt(dst, int64(len(g.Atom.Pred)), 10)
	dst = append(dst, ':')
	dst = append(dst, g.Atom.Pred...)
	for _, t := range g.Atom.Args {
		w := dv.env.Walk(t)
		if !w.IsVar() {
			dst = term.AppendCode(dst, w.Code())
			continue
		}
		idx := -1
		for j := range vars {
			if vars[j].VarID() == w.VarID() {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(vars)
			vars = append(vars, w)
		}
		dst = term.AppendCode(dst, uint64(idx)<<3|memoTagVar)
	}
	return dst, vars
}

// memoStep serves an OpCall step from the memo table. handled reports
// whether the memo path took the step (the predicate is tabled and no
// same-key fill is in flight); when handled, cont is the usual
// cut-propagation result. The first call under a key fills the table by
// exhausting the sub-search, then both paths replay the recorded answers.
func (dv *deriv) memoStep(g *ast.Lit, rebuild func(ast.Goal) ast.Goal, depth int, emit func() bool) (handled, cont bool) {
	em := dv.e.memo
	name, ok := em.preds[enginePredArity{pred: g.Atom.Pred, arity: len(g.Atom.Args)}]
	if !ok {
		return false, false
	}
	// Key and distinct-variable scratch are per-step locals: a nested
	// tabled call during fill or replay runs its own memoStep.
	var vars []term.Term
	buf, vars := dv.appendMemoKey(dv.memoBuf[:0], g, vars)
	dv.memoBuf = buf[:0]
	if dv.memoFlight[string(buf)] {
		// Re-entrant call on the same key (recursive tabled predicate
		// mid-fill): fall through to ordinary rule dispatch, which
		// explores exactly the untabled semantics.
		return false, false
	}
	entry := em.store.lookup(buf, name)
	if entry != nil && dv.memoFold(entry.reads) != entry.fp {
		em.store.invalidate(entry)
		dv.memoInvalid++
		entry = nil
	}
	var memoAnn uint8
	if entry != nil {
		em.store.hit(entry)
		dv.memoHits++
		memoAnn = MemoHit
		if dv.e.opts.Profile {
			dv.noteCall(g.Atom.Pred, 0)
		}
		dv.memoObserve(entry.reads)
		if dv.memoFill != 0 {
			dv.memoLog = append(dv.memoLog, entry.reads...)
		}
	} else {
		key := string(buf)
		dv.memoMisses++
		memoAnn = MemoMiss
		if dv.memoFlight == nil {
			dv.memoFlight = make(map[string]bool)
		}
		dv.memoFlight[key] = true
		// The fill is an independent, exhaustive sub-search of the bare
		// call: it must not be pruned by the enclosing derivation's
		// path-cycle entries (the outer explore of a bare-call goal holds
		// this very configuration, and pruning here would cache an empty
		// answer set). Give it a fresh path. The failure table stays
		// shared, but only entries recorded since the fill began prune
		// inside it (see explore): their reads are in this fill's log.
		savedPath := dv.path
		if savedPath != nil {
			dv.path = make(map[ckey]bool)
		}
		savedFill := dv.memoFill
		dv.memoSeq++
		dv.memoFill = dv.memoSeq
		logStart := len(dv.memoLog)
		var answers []memoSlot
		count := 0
		fillCont := dv.explore(g, depth+1, func() bool {
			for i, v := range vars {
				w := dv.env.Walk(v)
				if !w.IsVar() {
					answers = append(answers, memoSlot{t: w, alias: memoGround})
					continue
				}
				alias := memoUnbound
				for j := 0; j < i; j++ {
					if pw := dv.env.Walk(vars[j]); pw.IsVar() && pw.VarID() == w.VarID() {
						alias = int32(j)
						break
					}
				}
				answers = append(answers, memoSlot{alias: alias})
			}
			count++
			return true // collect every execution, then backtrack
		})
		dv.path = savedPath
		dv.memoFill = savedFill
		delete(dv.memoFlight, key)
		if !fillCont {
			// The sub-search errored (budget, depth, runtime fault): no
			// entry is stored and the error propagates.
			return true, false
		}
		reads, fp := dv.memoStamp(dv.memoLog[logStart:])
		if savedFill == 0 {
			// The outermost fill is done; an enclosing fill would still
			// need these reads.
			dv.memoLog = dv.memoLog[:0]
		}
		entry = em.store.insert(key, name, reads, fp, len(vars), count, answers)
	}
	if entry.nvars != len(vars) {
		// Defensive: an injective key cannot disagree on the variable
		// count; treat as unhandled rather than replay garbage.
		return false, false
	}
	// One budget charge for the call step itself (so a replayed failure
	// still consumes budget, matching the untabled call's accounting),
	// plus one per replayed answer.
	if !dv.budget() {
		return true, false
	}
	stride := entry.nvars
	for a := 0; a < entry.count; a++ {
		if !dv.budget() {
			return true, false
		}
		envMark := dv.env.Mark()
		okBind := true
		base := a * stride
		for i := 0; i < stride && okBind; i++ {
			slot := entry.answers[base+i]
			switch {
			case slot.alias == memoGround:
				okBind = dv.env.Unify(vars[i], slot.t)
			case slot.alias >= 0:
				okBind = dv.env.Unify(vars[i], vars[slot.alias])
			}
		}
		if !okBind {
			dv.env.Undo(envMark)
			continue
		}
		dv.pushTraceAtom(TraceCall, g.Atom, memoAnn)
		c := dv.explore(rebuild(ast.True{}), depth+1, emit)
		dv.popTrace(c)
		if !c {
			return true, false
		}
		dv.env.Undo(envMark)
	}
	return true, true
}
