package store

import "sync"

// Mem is the in-memory Provider: state survives any number of
// Open/Close cycles within the process but not the process itself.
// This preserves the stack's pre-durability behaviour when no -data-dir
// is configured, and it is what the verify fuzzer and the DES use to
// model durable crash-restart — a "restarted" component is rebuilt from
// the same named store, exactly as a real restart reopens files.
type Mem struct {
	mu     sync.Mutex
	stores map[string]*memStable
}

// NewMem creates an empty in-memory provider.
func NewMem() *Mem {
	return &Mem{stores: make(map[string]*memStable)}
}

// Open returns the named store, creating it on first use.
func (m *Mem) Open(name string) (Stable, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stores[name]
	if !ok {
		st = &memStable{}
		m.stores[name] = st
	}
	return st, nil
}

// Reset wipes every store. The verify checker calls it at the start of
// each schedule replay so state cannot leak between executions.
func (m *Mem) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores = make(map[string]*memStable)
}

// NewPrivate returns a Stable that nothing reopens: the journal of a
// component built without a store, which dies with it. It keeps its
// tail as Mem does, for its owner to serve peers from, but no snapshot:
// only a recovery would read one, so SaveSnapshot only empties the tail
// and sizes its arena, and Snapshot reports none.
func NewPrivate() Stable { return &memStable{private: true} }

// memStable keeps its tail's records back to back in one arena, so an
// append copies into memory the store already holds instead of
// allocating a record of its own. SaveSnapshot keeps the arena, the
// record ends and the snapshot buffer and overwrites them from then on:
// records are valid only until Replay's fn returns (Stable.Replay).
type memStable struct {
	mu      sync.Mutex
	arena   []byte
	ends    []int // ends[i] is where record i ends in arena
	snap    []byte
	hasSnap bool
	private bool // NewPrivate's: snapshots are not kept
}

func (s *memStable) Append(rec []byte) error {
	s.mu.Lock()
	s.arena = append(s.arena, rec...)
	s.ends = append(s.ends, len(s.arena))
	s.mu.Unlock()
	mAppends.Inc()
	return nil
}

func (s *memStable) Replay(fn func(rec []byte) error) error {
	s.mu.Lock()
	arena, ends := s.arena, s.ends
	s.mu.Unlock()
	start := 0
	for _, end := range ends {
		mReplays.Inc()
		if err := fn(arena[start:end:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// SaveSnapshot empties the tail and sizes the arena to the snapshot's
// length: Journal's rule lets the tail grow to about that before the
// next compaction folds it in.
func (s *memStable) SaveSnapshot(snap []byte) error {
	s.mu.Lock()
	if !s.private {
		s.snap = append(s.snap[:0], snap...)
		s.hasSnap = true
	}
	s.ends = s.ends[:0]
	if cap(s.arena) < len(snap) {
		s.arena = make([]byte, 0, len(snap))
	}
	s.arena = s.arena[:0]
	s.mu.Unlock()
	mSnaps.Inc()
	return nil
}

func (s *memStable) Snapshot() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasSnap {
		return nil, false, nil
	}
	return append([]byte(nil), s.snap...), true, nil
}

func (s *memStable) Sync() error  { return nil }
func (s *memStable) Close() error { return nil }
