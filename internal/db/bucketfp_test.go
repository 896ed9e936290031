package db

import (
	"math/rand"
	"testing"

	"repro/internal/term"
)

// checkBucketFingerprints recomputes every index bucket's fingerprint from
// the tuples it holds and checks that the XOR over a relation's buckets is
// the relation fingerprint, and that BucketFingerprint reports both.
func checkBucketFingerprints(t *testing.T, d *DB, step int) {
	t.Helper()
	for _, ra := range d.Relations() {
		r := d.rel(ra.Pred, ra.Arity, false)
		var relLo, relHi uint64
		for c, b := range r.index {
			var lo, hi uint64
			for _, row := range b.rows {
				hl, hh := tupleHash(r.pred, r.arity, row)
				lo ^= hl
				hi ^= hh
			}
			if got := d.BucketFingerprint(r.pred, r.arity, c); got != [2]uint64{lo, hi} {
				t.Fatalf("step %d: %s/%d bucket %x fingerprint %x, recomputed %x", step, r.pred, r.arity, c, got, [2]uint64{lo, hi})
			}
			relLo ^= lo
			relHi ^= hi
		}
		if r.index == nil {
			if got, want := d.BucketFingerprint(r.pred, r.arity, 0), d.RelFingerprint(r.pred, r.arity); got != want {
				t.Fatalf("step %d: unindexed %s/%d bucket fingerprint %x, want the relation's %x", step, r.pred, r.arity, got, want)
			}
			continue
		}
		if got := d.RelFingerprint(r.pred, r.arity); got != [2]uint64{relLo, relHi} {
			t.Fatalf("step %d: %s/%d relation fingerprint %x, XOR of buckets %x", step, r.pred, r.arity, got, [2]uint64{relLo, relHi})
		}
		if n := d.IndexBuckets(r.pred, r.arity); n != len(r.index) {
			t.Fatalf("step %d: IndexBuckets = %d, want %d", step, n, len(r.index))
		}
	}
}

// TestBucketFingerprintProperty drives random inserts, deletes, undos and
// clones over a few relations and checks the bucket fingerprint invariants
// after every step, on the working DB and on each clone.
func TestBucketFingerprintProperty(t *testing.T) {
	vals := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := New()
		var marks []int
		tuple := func() (string, []term.Term) {
			switch r.Intn(3) {
			case 0:
				return "p", row(vals[r.Intn(len(vals))])
			case 1:
				return "q", row(vals[r.Intn(len(vals))], vals[r.Intn(len(vals))])
			default:
				return "z", nil
			}
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(6) {
			case 0, 1:
				pred, args := tuple()
				d.Insert(pred, args)
			case 2:
				pred, args := tuple()
				d.Delete(pred, args)
			case 3:
				marks = append(marks, d.Mark())
			case 4:
				if len(marks) > 0 {
					d.Undo(marks[len(marks)-1])
					marks = marks[:len(marks)-1]
				}
			case 5:
				c := d.Clone()
				checkBucketFingerprints(t, c, step)
				if c.Fingerprint() != d.Fingerprint() {
					t.Fatalf("seed %d step %d: clone fingerprint differs", seed, step)
				}
			}
			checkBucketFingerprints(t, d, step)
		}
	}
}

// TestBucketFingerprintEdges covers absent buckets and relations, content
// equality across replicas built in different orders, and a DB without an
// index.
func TestBucketFingerprintEdges(t *testing.T) {
	a := sym("a").Code()
	d := New()
	if got := d.BucketFingerprint("q", 2, a); got != [2]uint64{} {
		t.Fatalf("absent relation: %x, want {0,0}", got)
	}
	d.Insert("q", row("a", "b"))
	d.Insert("q", row("c", "d"))
	if got := d.BucketFingerprint("q", 2, sym("x").Code()); got != [2]uint64{} {
		t.Fatalf("absent bucket: %x, want {0,0}", got)
	}
	o := New()
	o.Insert("q", row("c", "d"))
	o.Insert("q", row("a", "b"))
	o.Insert("q", row("a", "z"))
	o.Delete("q", row("a", "z"))
	if d.BucketFingerprint("q", 2, a) != o.BucketFingerprint("q", 2, a) {
		t.Fatal("replicas holding the same bucket disagree on its fingerprint")
	}
	// Writes to another bucket leave this one's fingerprint alone.
	before := d.BucketFingerprint("q", 2, a)
	d.Insert("q", row("c", "e"))
	if d.BucketFingerprint("q", 2, a) != before {
		t.Fatal("a write to bucket c changed bucket a's fingerprint")
	}

	n := New(WithoutIndex())
	n.Insert("q", row("a", "b"))
	if got, want := n.BucketFingerprint("q", 2, a), n.RelFingerprint("q", 2); got != want {
		t.Fatalf("unindexed bucket fingerprint %x, want the relation's %x", got, want)
	}
	if n.IndexBuckets("q", 2) != 0 {
		t.Fatal("unindexed DB reports index buckets")
	}
}

// TestObserveRead checks what a replayed read reports to the read hook: a
// present bucket as a prefix read keyed like Scan's, an absent one as the
// coarser relation read, and nothing without a hook.
func TestObserveRead(t *testing.T) {
	d := New()
	d.ObserveRead(ReadRel, "q", 2, 0) // no hook: no effect
	d.Insert("q", row("a", "b"))
	type obs struct {
		kind  ReadKind
		key   string
		first uint64
	}
	var got []obs
	d.SetReadHook(func(kind ReadKind, pred string, arity int, key string, first uint64) {
		got = append(got, obs{kind, key, first})
	})
	a := sym("a").Code()
	d.ObserveRead(ReadPrefix, "q", 2, a)
	d.ObserveRead(ReadPrefix, "q", 2, sym("x").Code())
	d.ObserveRead(ReadPred, "q", -1, 0)
	want := []obs{
		{ReadPrefix, term.KeyOf(row("a")), a},
		{ReadRel, "", 0},
		{ReadPred, "", 0},
	}
	if len(got) != len(want) {
		t.Fatalf("observations %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observation %d = %v, want %v", i, got[i], want[i])
		}
	}
}
