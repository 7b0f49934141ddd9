package search

import "ralin/internal/core"

// Sizes of the transition memo. The first block (slots and successor arena)
// is embedded in the searcher, so a check whose distinct transitions fit in
// it allocates nothing for the memo even on a fresh searcher; larger checks
// spill to heap storage that stays with the pooled searcher. Past the caps
// the memo stops recording (lookups continue; new transitions are stepped
// live every time), so one runaway check cannot pin unbounded memory in the
// searcher pool.
const (
	tmBlockSlots = 128
	tmBlockShift = 64 - 7 // 64 - log2(tmBlockSlots)
	tmBlockSuccs = 64
	tmMaxSlots   = 1 << 15
	tmMaxSuccs   = 1 << 16
	// tmMaxFanout is the largest successor count a slot can describe (its
	// arena range packs the count into the low byte).
	tmMaxFanout = 1<<8 - 1
)

// transitionMemoOff disables the check-local transition memo for every
// search started while it is set. It is a test-only ablation toggle (the
// identity tests and the on/off benchmark flip it), not an option: the memo
// never changes a verdict, a witness or a search statistic.
var transitionMemoOff bool

// tmSlot is one memo index entry: the (source-state session ID, label index)
// key, the epoch it was written in, and its successors' arena range packed as
// offset<<8 | count. Slots hold no pointers, so a large pooled index is
// neither scanned by the collector nor able to pin states.
type tmSlot struct {
	state, label uint32
	stamp        uint32
	span         uint32
}

// tmSucc is one recorded successor: the state, its session-interner ID and
// its check-local compact ID, so a replay needs neither the interner nor the
// compactor.
type tmSucc struct {
	state   core.AbsState
	id, cid uint32
}

// transMemo is the check-local transition memo, the first level in front of
// the session transition cache: (source-state ID, label index) → the interned
// successors in raw emission order, duplicates included, so a replay feeds
// the set-insert path the exact sequence the live step would. Within one check
// the same update is stepped from the same abstract state along many query
// projections and sibling branches; the memo steps each pair once.
//
// Each searcher owns one, so it needs no lock. The index is open-addressed
// (linear probing, load ≤ 1/2) and epoch-stamped: a slot is live only when
// its stamp equals the current epoch, so starting a check is O(1) whatever
// the index grew to. Successors live in an append-only arena that release
// clears up to its used length, so a pooled searcher pins no state.
type transMemo struct {
	epoch uint32
	live  int
	shift uint8
	slots []tmSlot
	succ  []tmSucc

	slotBlock [tmBlockSlots]tmSlot
	succBlock [tmBlockSuccs]tmSucc
}

// reset starts a fresh check: every slot of the previous epoch goes stale at
// once. Epoch 0 is never live, so a wrap clears the index first.
func (m *transMemo) reset() {
	if m.slots == nil {
		m.slots = m.slotBlock[:]
		m.shift = tmBlockShift
		m.succ = m.succBlock[:0]
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.slots)
		m.epoch = 1
	}
	m.live = 0
}

// release drops the recorded successor states; the index and arena storage
// stay for the next check.
func (m *transMemo) release() {
	clear(m.succ)
	m.succ = m.succ[:0]
}

// slot returns the index position of (state, label): the live slot holding it
// or, on a miss, the free slot where it would be inserted.
func (m *transMemo) slot(state, label uint32) (int, bool) {
	mask := len(m.slots) - 1
	i := int((uint64(state)<<32 | uint64(label)) * 0x9e3779b97f4a7c15 >> m.shift)
	for {
		sl := &m.slots[i]
		if sl.stamp != m.epoch {
			return i, false
		}
		if sl.state == state && sl.label == label {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// get returns the recorded successors of (state, label), if present. The
// slice aliases the arena and is valid until the next put.
func (m *transMemo) get(state, label uint32) ([]tmSucc, bool) {
	i, ok := m.slot(state, label)
	if !ok {
		return nil, false
	}
	off, n := m.slots[i].span>>8, m.slots[i].span&tmMaxFanout
	return m.succ[off : off+n], true
}

// has reports whether (state, label) is recorded.
func (m *transMemo) has(state, label uint32) bool {
	_, ok := m.slot(state, label)
	return ok
}

// put records the successors of (state, label). The caller has just missed
// on the key. At the caps the transition is not recorded.
func (m *transMemo) put(state, label uint32, succ []tmSucc) {
	if len(succ) > tmMaxFanout {
		return
	}
	if 2*(m.live+1) > len(m.slots) && !m.growSlots() {
		return
	}
	if len(m.succ)+len(succ) > cap(m.succ) && !m.growSuccs(len(succ)) {
		return
	}
	span := uint32(len(m.succ))<<8 | uint32(len(succ))
	m.succ = append(m.succ, succ...)
	i, _ := m.slot(state, label)
	m.slots[i] = tmSlot{state: state, label: label, stamp: m.epoch, span: span}
	m.live++
}

// growSlots doubles the index and rehashes the live slots; false at the cap.
func (m *transMemo) growSlots() bool {
	if len(m.slots) >= tmMaxSlots {
		return false
	}
	old := m.slots
	m.slots = make([]tmSlot, 2*len(old))
	m.shift--
	for _, sl := range old {
		if sl.stamp == m.epoch {
			i, _ := m.slot(sl.state, sl.label)
			m.slots[i] = sl
		}
	}
	return true
}

// growSuccs makes room for k more successors, at least doubling the arena;
// false at the cap. The old storage is cleared so it pins no state (the
// embedded block in particular outlives the switch).
func (m *transMemo) growSuccs(k int) bool {
	need := len(m.succ) + k
	if need > tmMaxSuccs {
		return false
	}
	c := max(2*cap(m.succ), need)
	c = min(c, tmMaxSuccs)
	grown := make([]tmSucc, len(m.succ), c)
	copy(grown, m.succ)
	clear(m.succ)
	m.succ = grown
	return true
}
