// Package db implements the database substrate of the Transaction Datalog
// engine: sets of ground tuples grouped into relations, with
//
//   - set semantics for insertion and deletion, as in the paper (inserting a
//     present tuple and deleting an absent one succeed without effect);
//   - an undo log giving O(1) marking and O(changes) rollback, which the
//     proof-search engine uses to explore alternative execution paths and to
//     implement transactional abort;
//   - optional first-argument hash indexes for selective queries; and
//   - an incrementally maintained 128-bit fingerprint used by tabling to
//     recognize previously seen database states.
//
// Tuples are keyed by compact binary keys built from interned term codes
// (term.AppendKey): 8 bytes per argument, no string construction. Presence
// checks, no-op updates, and ground scans allocate nothing — see
// alloc_test.go for the enforced ceilings. Each relation (and each
// first-argument index bucket) caches its deterministic scan order and
// invalidates it on mutation, so repeated scans of a stable relation sort
// once per mutation epoch instead of once per call.
package db

import (
	"fmt"
	"iter"
	"maps"
	"sort"
	"strings"

	"repro/internal/term"
)

// DB is a mutable database: a finite set of ground atoms. The zero value is
// not usable; call New.
type DB struct {
	rels     map[relID]*relation
	trail    []change
	size     int
	hashLo   uint64
	hashHi   uint64
	useIndex bool
	detScan  bool
	readHook ReadHook

	// keyBuf is scratch for building binary tuple keys. It is reused across
	// calls; no method keeps a reference to it past the point where control
	// can re-enter the DB (Scan yields, hooks), so re-entrant use is safe.
	keyBuf []byte

	// Operation tallies for observability. Plain int64s: a DB is owned by a
	// single goroutine (each server session runs on its own replica), so
	// counting costs one increment, not an atomic RMW, on the zero-alloc
	// paths guarded by alloc_test.go.
	cnt Counters
}

// Counters is a snapshot of a DB's cumulative operation tallies.
type Counters struct {
	// Lookups counts ground point lookups: Contains calls, fully ground
	// Scans, and the presence checks implicit in Insert/Delete.
	Lookups int64
	// IndexHits counts Scans served from a first-argument index bucket.
	IndexHits int64
	// Scans counts Scans that had to walk a whole relation.
	Scans int64
	// OrderRebuilds counts deterministic scan-order cache rebuilds (the
	// sort-on-first-scan-after-mutation cost PR 2 introduced caching for).
	OrderRebuilds int64
}

// Counters returns the DB's cumulative operation tallies.
func (d *DB) Counters() Counters { return d.cnt }

// relID identifies a relation. A struct key: the per-operation Sprintf a
// string key would cost is exactly the kind of hot-path allocation this
// package now refuses to pay.
type relID struct {
	pred  string
	arity int
}

// ReadKind classifies one read observation reported to a ReadHook, from
// finest to coarsest granularity.
type ReadKind uint8

// Read observation kinds.
const (
	// ReadKey: the presence or absence of a single tuple key was observed
	// (a ground query, or the implicit presence check of an insert/delete
	// under set semantics).
	ReadKey ReadKind = iota
	// ReadPrefix: every tuple whose first argument has the given key was
	// observed (an index-assisted scan).
	ReadPrefix
	// ReadRel: the whole relation pred/arity was observed (a full scan).
	ReadRel
	// ReadPred: the predicate at every arity was observed (empty.p).
	ReadPred
)

// ReadHook observes the read dependencies of elementary operations:
// queries, emptiness tests, and the presence checks implicit in set-semantic
// updates. Transaction machinery (internal/server) uses it to build the
// read set that optimistic commit validation checks against concurrent
// writers. The hook fires on every explored execution path, so recorded
// read sets over-approximate the witness path — a sound direction for
// conflict detection. Keys passed to the hook are the portable canonical
// encodings of term.KeyOf (matching Op.Key), computed only when a hook is
// installed. first is the ground code (term.Code) of the tuple's first
// argument for ReadKey/ReadPrefix observations with arity > 0, and 0
// otherwise — codes are never 0, so 0 unambiguously means "no first
// argument". Shard-aware callers feed it to ShardOf to tag the read with
// the shard the observed tuples live in.
type ReadHook func(kind ReadKind, pred string, arity int, key string, first uint64)

// SetReadHook installs (or, with nil, removes) the read observation hook.
func (d *DB) SetReadHook(h ReadHook) { d.readHook = h }

// firstCode returns the ground code of a row's first argument, or 0 for a
// zero-arity row (codes are tagged in their low bits and are never 0).
func firstCode(row []term.Term) uint64 {
	if len(row) == 0 {
		return 0
	}
	return row[0].Code()
}

// trow is one stored tuple: the row plus its own binary key, kept so that
// deletion and undo never rebuild or re-allocate the key.
type trow struct {
	key string
	row []term.Term
}

// relation stores the tuples of one predicate/arity pair.
type relation struct {
	pred  string
	arity int
	rows  map[string]trow
	// index maps the code of the first argument to its bucket. nil when
	// indexing is disabled or arity is 0.
	index map[uint64]*ibucket
	// order is the cached snapshot of rows used by Scan; nil when stale
	// (invalidated by every mutation). sorted reports whether it is in
	// deterministic (term-compare) order.
	order  [][]term.Term
	sorted bool
	// free recycles the last emptied index bucket. Delete-then-reinsert
	// churn on a single-row bucket (the transactional update idiom) would
	// otherwise allocate a bucket and its map on every round trip.
	free *ibucket
	// seedLo/seedHi are the fingerprint prefix hashes of (pred, arity),
	// computed once so per-tuple hashing only folds the argument codes.
	seedLo uint64
	seedHi uint64
	// fpLo/fpHi are the relation's own 128-bit content fingerprint, the
	// per-relation slice of the DB fingerprint. XOR-maintained from the
	// same tuple hashes, so two replicas holding the same tuples agree on
	// it regardless of how they got there — the property memo tables
	// validate their reads against.
	fpLo uint64
	fpHi uint64
}

// ibucket is one first-argument index bucket, with a scan-order cache like
// the relation's and its own slice of the relation's content fingerprint
// (the XOR over a relation's buckets is the relation fingerprint). Only
// Scan reads a bucket's order, always sorted or always not as the DB's
// detScan says, so unlike the relation's cache it needs no sorted flag.
type ibucket struct {
	rows  map[string][]term.Term
	order [][]term.Term
	fpLo  uint64
	fpHi  uint64
}

// change is one undo-log entry.
type change struct {
	rel    *relation
	key    string
	row    []term.Term
	insert bool // true if the change was an insertion (undo deletes)
}

// Option configures a DB.
type Option func(*DB)

// WithoutIndex disables first-argument indexes (for the A3 ablation).
func WithoutIndex() Option {
	return func(d *DB) { d.useIndex = false }
}

// WithoutDeterministicScan lets Scan visit candidate tuples in snapshot
// order instead of sorted order. Avoids the per-epoch sort on large scans,
// but derivation order (and therefore witness traces) becomes
// nondeterministic.
func WithoutDeterministicScan() Option {
	return func(d *DB) { d.detScan = false }
}

// New returns an empty database.
func New(opts ...Option) *DB {
	d := &DB{rels: make(map[relID]*relation), useIndex: true, detScan: true}
	for _, o := range opts {
		o(d)
	}
	return d
}

// FromFacts returns a database holding the given ground atoms.
func FromFacts(facts []term.Atom, opts ...Option) (*DB, error) {
	d := New(opts...)
	for _, f := range facts {
		if !f.IsGround() {
			return nil, fmt.Errorf("db: fact %s is not ground", f)
		}
		d.Insert(f.Pred, f.Args)
	}
	d.ResetTrail()
	return d, nil
}

func (d *DB) rel(pred string, arity int, create bool) *relation {
	k := relID{pred: pred, arity: arity}
	r := d.rels[k]
	if r == nil && create {
		r = &relation{pred: pred, arity: arity, rows: make(map[string]trow)}
		r.seedLo, r.seedHi = relSeed(pred, arity)
		if d.useIndex && arity > 0 {
			r.index = make(map[uint64]*ibucket)
		}
		d.rels[k] = r
	}
	return r
}

// Fingerprint hashing: FNV-1a folded inline over (pred, arity, argument
// codes), in two independently seeded streams for 128 bits. No hash.Hash
// objects, no key strings — pure arithmetic on the hot path.
const (
	fnvPrime   = 1099511628211
	fnvOffset  = 14695981039346656037
	fnvOffset2 = 0x9e3779b97f4a7c15 // independent second stream seed
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// relSeed hashes the relation identity into both fingerprint streams.
func relSeed(pred string, arity int) (uint64, uint64) {
	lo, hi := uint64(fnvOffset), uint64(fnvOffset2)
	for i := 0; i < len(pred); i++ {
		lo = fnvByte(lo, pred[i])
		hi = fnvByte(hi, pred[i])
	}
	lo = fnvU64(lo, uint64(arity))
	hi = fnvU64(hi, uint64(arity)+1)
	return lo, hi
}

// tupleHashFrom folds the row's term codes onto the relation seeds.
func tupleHashFrom(seedLo, seedHi uint64, row []term.Term) (uint64, uint64) {
	lo, hi := seedLo, seedHi
	for _, t := range row {
		c := t.Code()
		lo = fnvU64(lo, c)
		hi = fnvU64(hi, c^0xa5a5a5a5a5a5a5a5)
	}
	return lo, hi
}

// tupleHash returns the two fingerprint contributions of one tuple (the
// non-seeded entry point, used by FrozenDB).
func tupleHash(pred string, arity int, row []term.Term) (uint64, uint64) {
	lo, hi := relSeed(pred, arity)
	return tupleHashFrom(lo, hi, row)
}

// Size returns the total number of tuples.
func (d *DB) Size() int { return d.size }

// Count returns the number of tuples in pred/arity.
func (d *DB) Count(pred string, arity int) int {
	r := d.rel(pred, arity, false)
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// IsEmpty reports whether the relation named pred is empty at every arity.
// This implements the elementary test empty.p.
func (d *DB) IsEmpty(pred string) bool {
	if d.readHook != nil {
		d.readHook(ReadPred, pred, -1, "", 0)
	}
	for _, r := range d.rels {
		if r.pred == pred && len(r.rows) > 0 {
			return false
		}
	}
	return true
}

// Contains reports whether the ground tuple pred(row) is present.
func (d *DB) Contains(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	if d.readHook != nil {
		d.readHook(ReadKey, pred, len(row), term.KeyOf(row), firstCode(row))
	}
	r := d.rel(pred, len(row), false)
	if r == nil {
		return false
	}
	_, ok := r.rows[string(kb)] // compiled to an allocation-free lookup
	return ok
}

// Insert adds pred(row); row must be ground. It reports whether the database
// changed (false when the tuple was already present).
func (d *DB) Insert(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	r := d.rel(pred, len(row), true)
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	if d.readHook != nil {
		// Set semantics make every update observe its tuple's presence.
		d.readHook(ReadKey, pred, len(row), term.KeyOf(row), firstCode(row))
	}
	if _, ok := r.rows[string(kb)]; ok {
		return false
	}
	key := string(kb) // materialized once, owned by the stored row
	stored := make([]term.Term, len(row))
	copy(stored, row)
	d.addRow(r, key, stored)
	d.trail = append(d.trail, change{rel: r, key: key, row: stored, insert: true})
	return true
}

// Delete removes pred(row); row must be ground. It reports whether the
// database changed (false when the tuple was absent).
func (d *DB) Delete(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	if d.readHook != nil {
		d.readHook(ReadKey, pred, len(row), term.KeyOf(row), firstCode(row))
	}
	r := d.rel(pred, len(row), false)
	if r == nil {
		return false
	}
	tr, ok := r.rows[string(kb)]
	if !ok {
		return false
	}
	d.removeRow(r, tr.key, tr.row)
	d.trail = append(d.trail, change{rel: r, key: tr.key, row: tr.row, insert: false})
	return true
}

func (d *DB) removeRow(r *relation, key string, stored []term.Term) {
	lo, hi := tupleHashFrom(r.seedLo, r.seedHi, stored)
	delete(r.rows, key)
	r.order = nil
	if r.index != nil {
		c := stored[0].Code()
		if b := r.index[c]; b != nil {
			delete(b.rows, key)
			b.order = nil
			b.fpLo ^= lo
			b.fpHi ^= hi
			if len(b.rows) == 0 {
				delete(r.index, c)
				r.free = b
			}
		}
	}
	d.size--
	d.hashLo ^= lo
	d.hashHi ^= hi
	r.fpLo ^= lo
	r.fpHi ^= hi
}

func (d *DB) addRow(r *relation, key string, stored []term.Term) {
	lo, hi := tupleHashFrom(r.seedLo, r.seedHi, stored)
	r.rows[key] = trow{key: key, row: stored}
	r.order = nil
	if r.index != nil {
		c := stored[0].Code()
		b := r.index[c]
		if b == nil {
			if b = r.free; b != nil {
				r.free = nil
			} else {
				b = &ibucket{rows: make(map[string][]term.Term)}
			}
			r.index[c] = b
		}
		b.rows[key] = stored
		b.order = nil
		b.fpLo ^= lo
		b.fpHi ^= hi
	}
	d.size++
	d.hashLo ^= lo
	d.hashHi ^= hi
	r.fpLo ^= lo
	r.fpHi ^= hi
}

// Mark returns the current undo-log position.
func (d *DB) Mark() int { return len(d.trail) }

// Undo rolls the database back to a previous Mark.
func (d *DB) Undo(mark int) {
	for i := len(d.trail) - 1; i >= mark; i-- {
		c := d.trail[i]
		if c.insert {
			d.removeRow(c.rel, c.key, c.row)
		} else {
			d.addRow(c.rel, c.key, c.row)
		}
	}
	d.trail = d.trail[:mark]
}

// ResetTrail discards undo history, committing all changes so far. Undo
// marks taken earlier become invalid.
func (d *DB) ResetTrail() { d.trail = d.trail[:0] }

// TrailLen returns the number of pending undo entries (for tests/metrics).
func (d *DB) TrailLen() int { return len(d.trail) }

// Fingerprint returns a 128-bit content fingerprint of the current state,
// independent of insertion order. Used as a tabling key.
func (d *DB) Fingerprint() [2]uint64 { return [2]uint64{d.hashLo, d.hashHi} }

// RelFingerprint returns the 128-bit content fingerprint of pred/arity —
// the relation's slice of the whole-DB Fingerprint. It is a pure function
// of the relation's tuple set: replicas holding the same tuples agree on
// it no matter how they were built, and rolling mutations back restores
// it. A missing relation fingerprints like an empty one ({0, 0}).
func (d *DB) RelFingerprint(pred string, arity int) [2]uint64 {
	if r := d.rel(pred, arity, false); r != nil {
		return [2]uint64{r.fpLo, r.fpHi}
	}
	return [2]uint64{}
}

// PredFingerprint returns the combined content fingerprint of pred at
// every arity — the state the emptiness test empty.p depends on. The
// per-relation fingerprints XOR, so the result is order-independent and
// exact.
func (d *DB) PredFingerprint(pred string) [2]uint64 {
	var lo, hi uint64
	for _, r := range d.rels {
		if r.pred == pred {
			lo ^= r.fpLo
			hi ^= r.fpHi
		}
	}
	return [2]uint64{lo, hi}
}

// BucketFingerprint returns the 128-bit content fingerprint of the
// first-argument index bucket of pred/arity whose first argument has the
// ground code first: the XOR of its tuples' hashes, so, like
// RelFingerprint, a pure function of the tuples it holds (replicas agree
// on it, and rolling mutations back restores it). An absent bucket or
// relation fingerprints as {0, 0}. Without an index (WithoutIndex, or a
// zero-arity relation) the only bucket is the whole relation, and the
// relation fingerprint is returned.
func (d *DB) BucketFingerprint(pred string, arity int, first uint64) [2]uint64 {
	r := d.rel(pred, arity, false)
	if r == nil {
		return [2]uint64{}
	}
	if r.index == nil {
		return [2]uint64{r.fpLo, r.fpHi}
	}
	if b := r.index[first]; b != nil {
		return [2]uint64{b.fpLo, b.fpHi}
	}
	return [2]uint64{}
}

// IndexBuckets returns the number of non-empty first-argument index
// buckets of pred/arity: 0 for a missing relation and for a DB or
// relation without an index.
func (d *DB) IndexBuckets(pred string, arity int) int {
	if r := d.rel(pred, arity, false); r != nil {
		return len(r.index)
	}
	return 0
}

// ObserveRead reports a read made without a lookup to the read hook, if
// one is installed: memo tables replay answers whose reads an earlier
// search made, and report them so transactional read sets stay complete.
// first is the first-argument code of a ReadPrefix observation. The hook's
// prefix key is rebuilt from a stored row of that bucket; an absent bucket
// has no row to rebuild it from and is reported as the coarser ReadRel.
// Without a hook the call is an inlined nil check.
func (d *DB) ObserveRead(kind ReadKind, pred string, arity int, first uint64) {
	if d.readHook != nil {
		d.observeRead(kind, pred, arity, first)
	}
}

func (d *DB) observeRead(kind ReadKind, pred string, arity int, first uint64) {
	if kind == ReadPrefix {
		var b *ibucket
		if r := d.rel(pred, arity, false); r != nil && r.index != nil {
			b = r.index[first]
		}
		if b == nil {
			d.readHook(ReadRel, pred, arity, "", 0)
			return
		}
		for _, row := range b.rows {
			d.readHook(ReadPrefix, pred, arity, term.KeyOf(row[:1]), first)
			return
		}
	}
	d.readHook(kind, pred, arity, "", 0)
}

// snapshot returns a stable slice of the relation's rows, cached until the
// next mutation. With wantSorted the slice is in deterministic term order;
// a cached unsorted snapshot is upgraded (and re-cached) on demand. The
// returned slice is never mutated in place: mutations replace the cache, so
// an iteration holding an old snapshot keeps its fixed candidate set.
func (r *relation) snapshot(wantSorted bool) [][]term.Term {
	if r.order != nil && (!wantSorted || r.sorted) {
		return r.order
	}
	out := make([][]term.Term, 0, len(r.rows))
	for _, tr := range r.rows {
		out = append(out, tr.row)
	}
	if wantSorted {
		sortRows(out)
	}
	r.order, r.sorted = out, wantSorted
	return out
}

func (b *ibucket) snapshot(wantSorted bool) [][]term.Term {
	if b.order != nil {
		return b.order
	}
	out := make([][]term.Term, 0, len(b.rows))
	for _, row := range b.rows {
		out = append(out, row)
	}
	if wantSorted {
		sortRows(out)
	}
	b.order = out
	return out
}

// sortRows orders rows by term comparison, argument by argument: the
// deterministic scan and print order of the package.
func sortRows(rows [][]term.Term) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if c := rows[i][k].Compare(rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Scan calls yield for every tuple of pred/arity that unifies with args
// under env, with the unifying bindings in effect during the call; bindings
// are undone after each yield that returns true. Iteration stops early when
// yield returns false, in which case the current bindings are kept (the
// engine uses this to preserve witness state on a cut). Scan reports whether
// iteration ran to completion.
//
// The set of candidate tuples is fixed when Scan is called: updates
// performed inside yield do not affect which tuples are visited. This gives
// queries snapshot behaviour within a single elementary step.
func (d *DB) Scan(pred string, args []term.Term, env *term.Env, yield func() bool) bool {
	// One pass over the arguments: detect groundness and, while everything
	// is ground so far, accumulate the binary lookup key.
	kb := d.keyBuf[:0]
	ground := true
	for _, a := range args {
		w := env.Walk(a)
		if w.IsVar() {
			ground = false
			break
		}
		kb = term.AppendCode(kb, w.Code())
	}
	d.keyBuf = kb

	var resolved []term.Term
	if !ground || d.readHook != nil {
		resolved = env.ResolveArgs(args)
	}
	if d.readHook != nil {
		// Record the read at the granularity the lookup below uses, even
		// when the relation does not exist yet: observing absence is a read.
		switch {
		case ground:
			d.readHook(ReadKey, pred, len(args), term.KeyOf(resolved), firstCode(resolved))
		case d.useIndex && !resolved[0].IsVar():
			d.readHook(ReadPrefix, pred, len(args), term.KeyOf(resolved[:1]), resolved[0].Code())
		default:
			d.readHook(ReadRel, pred, len(args), "", 0)
		}
	}
	r := d.rel(pred, len(args), false)
	if r == nil {
		return true
	}

	// Fully ground: single allocation-free lookup.
	if ground {
		d.cnt.Lookups++
		if _, ok := r.rows[string(kb)]; ok {
			return yield()
		}
		return true
	}

	// Choose candidates: first-arg index bucket when available and
	// selective, else the whole relation; either way through the cached
	// snapshot, so the deterministic sort happens once per mutation epoch.
	var candidates [][]term.Term
	if r.index != nil && !resolved[0].IsVar() {
		d.cnt.IndexHits++
		if b := r.index[resolved[0].Code()]; b != nil {
			if b.order == nil {
				d.cnt.OrderRebuilds++
			}
			candidates = b.snapshot(d.detScan)
		}
	} else {
		d.cnt.Scans++
		if r.order == nil || (d.detScan && !r.sorted) {
			d.cnt.OrderRebuilds++
		}
		candidates = r.snapshot(d.detScan)
	}
	for _, row := range candidates {
		mark := env.Mark()
		if env.UnifyArgs(resolved, row) {
			if !yield() {
				// Early stop: bindings are deliberately left in effect so
				// callers can cut a search while keeping the witness state.
				return false
			}
			env.Undo(mark)
		} else {
			env.Undo(mark)
		}
	}
	return true
}

// Tuples returns all tuples of pred/arity in deterministic order (sorted
// by term comparison, argument by argument).
func (d *DB) Tuples(pred string, arity int) [][]term.Term {
	r := d.rel(pred, arity, false)
	if r == nil {
		return nil
	}
	// Copy the cached sorted snapshot: callers may reorder the outer slice.
	return append([][]term.Term(nil), r.snapshot(true)...)
}

// Relations returns the pred/arity pairs present (possibly with zero rows),
// sorted by name then arity.
func (d *DB) Relations() []struct {
	Pred  string
	Arity int
} {
	out := make([]struct {
		Pred  string
		Arity int
	}, 0, len(d.rels))
	for _, r := range d.rels {
		out = append(out, struct {
			Pred  string
			Arity int
		}{r.pred, r.arity})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Clone returns a deep copy with an empty undo log. Used by the simulator
// (each run gets its own state) and by the copy-based forking ablation.
func (d *DB) Clone() *DB {
	out := New()
	out.useIndex = d.useIndex
	out.detScan = d.detScan
	for k, r := range d.rels {
		// Rows are immutable once stored, so both maps share them.
		nr := &relation{
			pred: r.pred, arity: r.arity,
			rows:   maps.Clone(r.rows),
			seedLo: r.seedLo, seedHi: r.seedHi,
			fpLo: r.fpLo, fpHi: r.fpHi,
		}
		if r.index != nil {
			nr.index = make(map[uint64]*ibucket, len(r.index))
			for c, b := range r.index {
				nr.index[c] = &ibucket{rows: maps.Clone(b.rows), fpLo: b.fpLo, fpHi: b.fpHi}
			}
		}
		out.rels[k] = nr
	}
	out.size = d.size
	out.hashLo = d.hashLo
	out.hashHi = d.hashHi
	return out
}

// Equal reports whether two databases hold exactly the same tuples.
func (d *DB) Equal(o *DB) bool {
	if d.size != o.size {
		return false
	}
	for k, r := range d.rels {
		or := o.rels[k]
		if or == nil {
			if len(r.rows) != 0 {
				return false
			}
			continue
		}
		if len(r.rows) != len(or.rows) {
			return false
		}
		for key := range r.rows {
			if _, ok := or.rows[key]; !ok {
				return false
			}
		}
	}
	for k, or := range o.rels {
		if d.rels[k] == nil && len(or.rows) != 0 {
			return false
		}
	}
	return true
}

// String renders the database as sorted facts, one per line.
func (d *DB) String() string {
	var b strings.Builder
	for _, ra := range d.Relations() {
		for _, row := range d.Tuples(ra.Pred, ra.Arity) {
			b.WriteString(term.Atom{Pred: ra.Pred, Args: row}.String())
			b.WriteString(".\n")
		}
	}
	return b.String()
}

// All ranges over the tuples of pred/arity in deterministic (sorted)
// order:
//
//	for row := range d.All("account", 2) { ... }
//
// The yielded slices are the stored rows; callers must not mutate them.
func (d *DB) All(pred string, arity int) iter.Seq[[]term.Term] {
	return func(yield func([]term.Term) bool) {
		for _, row := range d.Tuples(pred, arity) {
			if !yield(row) {
				return
			}
		}
	}
}

// AllAtoms ranges over every stored tuple as a ground atom, sorted by
// relation then tuple.
func (d *DB) AllAtoms() iter.Seq[term.Atom] {
	return func(yield func(term.Atom) bool) {
		for _, ra := range d.Relations() {
			for _, row := range d.Tuples(ra.Pred, ra.Arity) {
				if !yield(term.Atom{Pred: ra.Pred, Args: row}) {
					return
				}
			}
		}
	}
}

// Op is one effective elementary update — an undo-log entry made portable.
// Sequences of Ops are the write sets that transactional callers (the
// server's optimistic concurrency control) extract, validate, log, and
// replay.
type Op struct {
	Insert bool // false = delete
	Pred   string
	Row    []term.Term

	// storeKey caches the in-memory storage key (term.AppendKey codes, valid
	// only within this process) when the op was extracted from an undo trail,
	// which already materialized it. Empty for hand-built ops. A non-empty
	// storeKey also marks Row as an immutably-stored row that Apply may
	// share instead of copying. NOT the canonical portable key — see Key.
	storeKey string
	// canon memoizes Key: a commit needs each op's canonical key three
	// times (conflict keys, frozen view, WAL record).
	canon string
}

// Key returns the canonical tuple key of the op's row (term.KeyOf) — the
// portable encoding used by the WAL and the snapshot, not the interned
// in-memory storage key.
func (o *Op) Key() string {
	if o.canon == "" {
		o.canon = term.KeyOf(o.Row)
	}
	return o.canon
}

func (o Op) String() string {
	verb := "del"
	if o.Insert {
		verb = "ins"
	}
	return verb + "." + term.Atom{Pred: o.Pred, Args: o.Row}.String()
}

// DeltaSince returns the effective updates recorded on the undo trail since
// mark, in execution order. Because backtracking removes undone entries,
// the result is exactly the net-effect write set of the surviving
// execution path.
func (d *DB) DeltaSince(mark int) []Op {
	if mark >= len(d.trail) {
		return nil
	}
	out := make([]Op, 0, len(d.trail)-mark)
	for _, c := range d.trail[mark:] {
		out = append(out, Op{Insert: c.insert, Pred: c.rel.pred, Row: c.row, storeKey: c.key})
	}
	return out
}

// Apply performs ops in order (through the trail, so the batch can still be
// undone from a prior Mark). Ops carrying a cached storage key (i.e.
// extracted by DeltaSince) take an allocation-free path: the stored row and
// its key are shared, not copied — stored rows are immutable everywhere, so
// sharing them across replicas is safe. This is the replica catch-up hot
// path: with N concurrent committers every commit replays the other N-1
// write sets.
func (d *DB) Apply(ops []Op) {
	for i := range ops {
		d.ApplyOne(&ops[i])
	}
}

// ApplyOne performs a single op through the trail, reporting whether the
// database changed (set semantics make repeats no-ops).
func (d *DB) ApplyOne(o *Op) bool {
	if o.storeKey == "" {
		if o.Insert {
			return d.Insert(o.Pred, o.Row)
		}
		return d.Delete(o.Pred, o.Row)
	}
	d.cnt.Lookups++
	if o.Insert {
		r := d.rel(o.Pred, len(o.Row), true)
		if _, ok := r.rows[o.storeKey]; ok {
			return false
		}
		d.addRow(r, o.storeKey, o.Row)
		d.trail = append(d.trail, change{rel: r, key: o.storeKey, row: o.Row, insert: true})
		return true
	}
	r := d.rel(o.Pred, len(o.Row), false)
	if r == nil {
		return false
	}
	tr, ok := r.rows[o.storeKey]
	if !ok {
		return false
	}
	d.removeRow(r, tr.key, tr.row)
	d.trail = append(d.trail, change{rel: r, key: tr.key, row: tr.row, insert: false})
	return true
}

// Atoms returns every tuple as a ground atom, sorted.
func (d *DB) Atoms() []term.Atom {
	var out []term.Atom
	for _, ra := range d.Relations() {
		for _, row := range d.Tuples(ra.Pred, ra.Arity) {
			out = append(out, term.Atom{Pred: ra.Pred, Args: row})
		}
	}
	return out
}
