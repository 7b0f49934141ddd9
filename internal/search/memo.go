package search

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// bitset is a fixed-capacity bit vector over label indices; histories can
// exceed 64 labels after rewriting, so one word is not enough in general.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }

// memoShardCount is the number of independent locks (and maps) the shared
// memo table is striped across. 64 stripes keep the collision probability of
// two workers hitting the same lock at the same time negligible for the
// worker counts the engine runs (≤ GOMAXPROCS).
const memoShardCount = 64

// memoTable is the shared, lock-striped memoization table of one search: the
// set of (placed-set, spec-state) configurations some worker has started
// exploring. All workers share one table, so a configuration claimed — and,
// since a claimant's DFS only returns after exhausting its subtree, sooner or
// later fully explored — by any worker prunes every other worker.
//
// Claims are made on node entry ("claim-on-entry"), not on subtree
// completion. This is sound because a configuration determines its entire
// subtree: the first claimant explores it to exhaustion (or the search stops
// globally, in which case the overall result is a witness or a truncation and
// memo contents are moot; donated sub-branches are drained by the work queue
// before the search can terminate), so any later visitor of an equal
// configuration may skip immediately. Sequentially this is equivalent to
// marking on completion — a DFS cannot re-reach a configuration that is still
// on its own stack, because the placed set grows strictly with depth — while
// in parallel it removes the window in which two workers duplicate a subtree
// that neither has finished.
//
// In debug mode (core.CheckOptions.DebugMemo) every claimed key additionally
// stores the full word tuple it was hashed from, and a duplicate key arriving
// with a different tuple — a genuine 128-bit hash collision, which would
// silently prune a subtree that was never explored — panics instead of
// pruning. Debug mode also carries each configuration's legacy memo key (the
// pre-bitset hash over sorted interned-ID walks) and asserts the two key
// schemes induce the same equality on configurations: a legacy key mapping to
// two distinct word-folded keys means the bitset representation split a
// configuration the ID walk considered equal (or a legacy 128-bit collision),
// and a word-folded key carrying two distinct legacy keys is the converse.
// This turns the ~2⁻⁶⁴ hash-compaction risk — and the old-key/new-key
// agreement during the representation transition — into checked invariants
// for differential and soak runs, at the cost of one tuple allocation and two
// map insertions per memoized node.
type memoTable struct {
	// debug is set by Run from the check's options before any worker touches
	// the table, and is only read afterwards.
	debug bool
	// seq marks a single-worker search: every claim routes through stripe 0
	// with no locking — the striping exists only for worker concurrency, and
	// one lazily-built map allocates far less than 64. Set by Run per check,
	// cleared by reset.
	seq bool
	// live, when non-nil, points at the session's live memo-entry counter:
	// claim increments it per stored entry and reset hands the table's
	// entries back. Session.getMemo sets it only when a memo budget
	// (Budget.MaxMemoBytes) is configured, so the unbudgeted claim path pays
	// nothing beyond a nil check.
	live   *atomic.Int64
	shards [memoShardCount]memoShard

	// dbgMu guards the debug-only dual-key maps below. They live at table
	// level (not per shard) because the legacy-key direction must see every
	// stripe: two word-folded keys sharing one legacy key land in different
	// shards.
	dbgMu sync.Mutex
	// dbgLegacy maps each claimed word-folded key to the legacy key of its
	// configuration; dbgNew is the inverse direction. Both nil outside debug
	// mode.
	dbgLegacy map[key128]key128
	dbgNew    map[key128]key128
}

type memoShard struct {
	mu sync.Mutex
	// seen is built lazily on the shard's first claim, so a sequential check
	// (which only ever touches stripe 0) allocates one map, not 64, and a
	// parallel check allocates only the stripes its keys actually hit.
	seen map[key128]struct{}
	// tuples holds the full hashed word sequence per key in debug mode
	// (nil otherwise).
	tuples map[key128][]uint64
	// count tracks len(seen) under mu, so reset can return the table's total
	// to the session's memo-budget counter without walking the maps.
	count int
	// Pad the 32 bytes of mutex + two map headers + count to a full 64-byte
	// cache line so neighboring stripes don't false-share.
	_ [32]byte
}

func newMemoTable() *memoTable { return &memoTable{} }

// reset clears every stripe while keeping the maps' allocated buckets, so a
// session's memo arena allocates its shard maps once per batch instead of
// once per history. Keys mix per-history label indices, so stale entries must
// never survive into the next check — clearing, not reuse of contents, is the
// point. Must not be called while a search is still using the table.
func (m *memoTable) reset() {
	m.debug = false
	m.seq = false
	var drained int64
	for i := range m.shards {
		drained += int64(m.shards[i].count)
		m.shards[i].count = 0
		clear(m.shards[i].seen)
		clear(m.shards[i].tuples)
	}
	clear(m.dbgLegacy)
	clear(m.dbgNew)
	if m.live != nil {
		m.live.Add(-drained)
		m.live = nil
	}
}

// claim records the configuration key and reports whether this call was the
// first to do so. A false return means an equal configuration is already
// being (or has been) explored elsewhere and the caller must skip its
// subtree. tuple is the word sequence the key was hashed from and legacy the
// configuration's legacy (sorted-ID walk) key; both are ignored outside debug
// mode, where a duplicate key with a non-equal tuple is a hash collision and
// panics, and a violated key-scheme bijection (see the type comment) panics
// likewise.
func (m *memoTable) claim(k key128, tuple []uint64, legacy key128) bool {
	sh := &m.shards[0]
	if !m.seq {
		sh = &m.shards[k.lo%memoShardCount]
		sh.mu.Lock()
	}
	dup := false
	if sh.seen == nil {
		sh.seen = make(map[key128]struct{}, 64)
	} else {
		_, dup = sh.seen[k]
	}
	if !dup {
		sh.seen[k] = struct{}{}
		sh.count++
		if m.debug {
			if sh.tuples == nil {
				sh.tuples = make(map[key128][]uint64)
			}
			sh.tuples[k] = append([]uint64(nil), tuple...)
		}
	} else if m.debug {
		if stored, ok := sh.tuples[k]; ok && !slices.Equal(stored, tuple) {
			if !m.seq {
				sh.mu.Unlock()
			}
			panic(fmt.Sprintf(
				"search: 128-bit memo key collision: key %016x%016x first claimed for configuration %v, re-claimed for distinct configuration %v",
				k.hi, k.lo, stored, tuple))
		}
	}
	if !m.seq {
		sh.mu.Unlock()
	}
	if m.debug {
		m.checkDualKey(k, legacy)
	}
	if !dup && m.live != nil {
		m.live.Add(1)
	}
	return !dup
}

// checkDualKey asserts the bijection between the word-folded and the legacy
// key of every configuration seen so far (debug mode only).
func (m *memoTable) checkDualKey(k, legacy key128) {
	m.dbgMu.Lock()
	defer m.dbgMu.Unlock()
	if m.dbgLegacy == nil {
		m.dbgLegacy = make(map[key128]key128)
		m.dbgNew = make(map[key128]key128)
	}
	if prev, ok := m.dbgLegacy[k]; ok {
		if prev != legacy {
			panic(fmt.Sprintf(
				"search: word-folded memo key %016x%016x claimed for two configurations with distinct legacy keys %016x%016x and %016x%016x",
				k.hi, k.lo, prev.hi, prev.lo, legacy.hi, legacy.lo))
		}
	} else {
		m.dbgLegacy[k] = legacy
	}
	if prev, ok := m.dbgNew[legacy]; ok {
		if prev != k {
			panic(fmt.Sprintf(
				"search: legacy memo key %016x%016x maps to two distinct word-folded keys %016x%016x and %016x%016x — the bitset representation split a configuration the ID walk considered equal",
				legacy.hi, legacy.lo, prev.hi, prev.lo, k.hi, k.lo))
		}
	} else {
		m.dbgNew[legacy] = k
	}
}

// memoKey hashes the current search configuration into a fixed-size 128-bit
// key: the placed-label bitset, the compact-ID bitset of the main state set,
// and — in RA mode — the compact-ID bitset of every pending query's
// justification set. The future subtree is a function of exactly these (the
// placed set determines the remaining labels and their frontier structure;
// the state sets determine every further admissibility check), so pruning on
// a repeated key is sound up to hash collision. The bitsets are maintained in
// canonical trimmed form by insertCompact, so equal sets fold to equal word
// sequences — the key is whole-word mixing over data that already exists, a
// word per 64 states where the pre-bitset key mixed one word per state.
//
// The second return value is false when memoization is off: the table is
// disabled, or some reachable state does not implement core.StateKeyer (the
// shared unkeyable flag, set by the insert path, covers every worker).
//
// In debug mode the walk additionally records the exact word sequence into
// s.keyTuple and the legacy (sorted-ID walk) key into s.legacyKey (claim
// stores and cross-checks both); the hot path keeps its append-free loop.
func (s *searcher) memoKey() (key128, bool) {
	if s.memo == nil || s.sh.unkeyable.Load() {
		return key128{}, false
	}
	if s.memo.debug {
		return s.memoKeyDebug()
	}
	h := newHash128()
	for _, w := range s.placed {
		h.mix(w)
	}
	h.mix(uint64(len(s.mainWords)))
	for _, w := range s.mainWords {
		h.mix(w)
	}
	if !s.strong {
		for _, q := range s.pre.queries {
			if s.placed.get(q) {
				continue
			}
			words := s.qwords[q]
			h.mix(uint64(q)<<32 | uint64(len(words)))
			for _, w := range words {
				h.mix(w)
			}
		}
	}
	return h.sum(), true
}

// memoKeyDebug is memoKey with the hashed words captured in s.keyTuple and
// the legacy key recomputed into s.legacyKey. The tuple walk must stay in
// lockstep with memoKey: the tuple is the collision-check witness for exactly
// the words the hash consumed.
func (s *searcher) memoKeyDebug() (key128, bool) {
	h := newHash128()
	t := s.keyTuple[:0]
	for _, w := range s.placed {
		h.mix(w)
		t = append(t, w)
	}
	w0 := uint64(len(s.mainWords))
	h.mix(w0)
	t = append(t, w0)
	for _, w := range s.mainWords {
		h.mix(w)
		t = append(t, w)
	}
	if !s.strong {
		for _, q := range s.pre.queries {
			if s.placed.get(q) {
				continue
			}
			words := s.qwords[q]
			wq := uint64(q)<<32 | uint64(len(words))
			h.mix(wq)
			t = append(t, wq)
			for _, w := range words {
				h.mix(w)
				t = append(t, w)
			}
		}
	}
	s.keyTuple = t
	s.legacyKey = s.legacyMemoKey()
	return h.sum(), true
}

// legacyMemoKey recomputes the pre-bitset memo key — the hash over the
// sorted interned-ID walk of every state set — so debug mode can assert that
// the word-folded key and the legacy key agree on configuration equality
// (memoTable.checkDualKey). The set IDs are kept in arrival order now, so the
// walk sorts a scratch copy per set; this runs in debug mode only.
func (s *searcher) legacyMemoKey() key128 {
	h := newHash128()
	for _, w := range s.placed {
		h.mix(w)
	}
	h.mix(uint64(len(s.mainIDs)))
	for _, id := range s.sortedIDs(s.mainIDs) {
		h.mixID(id)
	}
	if !s.strong {
		for _, q := range s.pre.queries {
			if s.placed.get(q) {
				continue
			}
			ids := s.qids[q]
			h.mix(uint64(q)<<32 | uint64(len(ids)))
			for _, id := range s.sortedIDs(ids) {
				h.mixID(id)
			}
		}
	}
	return h.sum()
}

// sortedIDs copies ids into the debug scratch and sorts it ascending — the
// canonical order the legacy memo key hashed. The scratch is reused per call;
// callers consume the result before calling again.
func (s *searcher) sortedIDs(ids []uint32) []uint32 {
	s.dbgIDs = append(s.dbgIDs[:0], ids...)
	slices.Sort(s.dbgIDs)
	return s.dbgIDs
}
