package term

// Slots is a table from variable ids to values of type V with an O(1)
// Clear. Ids in [base, base+MaxDense) index a slice directly, the way Env
// binds a derivation's fresh variables; other ids go to a map. Each entry
// carries the generation it was written in, and Clear just starts a new
// generation, so a table reused for every rule activation or configuration
// key never pays for emptying itself.
type Slots[V any] struct {
	base  int64
	gen   uint32
	dense []stamped[V]
	far   map[int64]stamped[V]
}

type stamped[V any] struct {
	v   V
	gen uint32
}

// farKeep is the map size past which Clear empties the map instead of
// leaving stale entries behind.
const farKeep = 64

// NewSlots returns an empty table whose dense range starts at base.
func NewSlots[V any](base int64) *Slots[V] {
	return &Slots[V]{base: base, gen: 1}
}

// Get returns the value stored for id in the current generation.
func (s *Slots[V]) Get(id int64) (V, bool) {
	var e stamped[V]
	if i := uint64(id - s.base); i < MaxDense {
		if i < uint64(len(s.dense)) {
			e = s.dense[i]
		}
	} else {
		e = s.far[id]
	}
	if e.gen != s.gen {
		var zero V
		return zero, false
	}
	return e.v, true
}

// Put stores v for id in the current generation.
func (s *Slots[V]) Put(id int64, v V) {
	if i := uint64(id - s.base); i < MaxDense {
		if i >= uint64(len(s.dense)) {
			s.dense = append(s.dense, make([]stamped[V], int(i)+1-len(s.dense))...)
		}
		s.dense[i] = stamped[V]{v: v, gen: s.gen}
		return
	}
	if s.far == nil {
		s.far = make(map[int64]stamped[V])
	}
	s.far[id] = stamped[V]{v: v, gen: s.gen}
}

// Clear empties the table. When the generation counter wraps, every stamp
// is zeroed, so no entry from 2³² generations ago can read as current.
func (s *Slots[V]) Clear() {
	s.gen++
	if s.gen == 0 {
		clear(s.dense)
		clear(s.far)
		s.gen = 1
	}
	if len(s.far) > farKeep {
		clear(s.far)
	}
}

// SetBase empties the table and moves its dense range to start at base.
func (s *Slots[V]) SetBase(base int64) {
	s.Clear()
	s.base = base
}
