package search

import (
	"fmt"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// TestTransMemoPutGetReset covers the memo's own contract: a recorded
// transition replays exactly (order, duplicates and empty successor lists
// included), survives the index and arena spilling out of the embedded
// block, and goes stale at once when the next check starts.
func TestTransMemoPutGetReset(t *testing.T) {
	var m transMemo
	m.reset()
	succ := func(state, label uint32) []tmSucc {
		out := make([]tmSucc, int(state+label)%3) // 0, 1 or 2 successors
		for k := range out {
			out[k] = tmSucc{state: spec.CounterState(state + label), id: state*1000 + label, cid: uint32(k)}
		}
		if len(out) == 2 {
			out[1] = out[0] // duplicates are recorded as emitted
		}
		return out
	}
	const states, labels = 40, 20 // 800 transitions: both parts spill
	for st := uint32(0); st < states; st++ {
		for l := uint32(0); l < labels; l++ {
			if m.has(st, l) {
				t.Fatalf("(%d,%d) present before put", st, l)
			}
			m.put(st, l, succ(st, l))
		}
	}
	if len(m.slots) <= tmBlockSlots || cap(m.succ) <= tmBlockSuccs {
		t.Fatalf("expected the memo to spill: %d slots, %d successor capacity", len(m.slots), cap(m.succ))
	}
	for k := range m.succBlock {
		if m.succBlock[k].state != nil {
			t.Fatalf("embedded arena slot %d still holds a state after the spill", k)
		}
	}
	for st := uint32(0); st < states; st++ {
		for l := uint32(0); l < labels; l++ {
			got, ok := m.get(st, l)
			want := succ(st, l)
			if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("(%d,%d): got %v (ok=%v), want %v", st, l, got, ok, want)
			}
		}
	}
	if _, ok := m.get(states, 0); ok {
		t.Fatal("unrecorded transition reported present")
	}
	m.release()
	m.reset()
	if m.has(0, 0) || m.has(states-1, labels-1) {
		t.Fatal("entries of the previous check survived reset")
	}
	if m.put(1, 1, make([]tmSucc, tmMaxFanout+1)); m.has(1, 1) {
		t.Fatal("a fan-out beyond tmMaxFanout must not be recorded")
	}
}

// TestTransMemoEpochWrap checks that the epoch wrap clears the index, so a
// slot stamped in the very first epoch cannot come back to life.
func TestTransMemoEpochWrap(t *testing.T) {
	var m transMemo
	m.reset()
	m.put(3, 4, nil)
	m.epoch = ^uint32(0) // the next reset wraps
	m.reset()
	if m.epoch != 1 || m.has(3, 4) {
		t.Fatalf("after the wrap: epoch %d, stale entry present=%v", m.epoch, m.has(3, 4))
	}
}

// concurrentAddsHistory builds k concurrent add(x_i) updates plus one read
// that sees all of them and returns an impossible value, so the exhaustive
// refutation visits all 2^k subsets and records ~k·2^(k-1) transitions.
func concurrentAddsHistory(k int) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(mkUpdate(uint64(i), "add", fmt.Sprintf("x%d", i)))
	}
	r := h.MustAdd(mkRead(uint64(k+1), []string{"never"}))
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// TestReleasedSearcherPinsNoStateThroughMemo is the retention test: after a
// check whose memo spilled out of the embedded block, the searcher released
// into the session pool holds no abstract state through the memo arena (old
// embedded block and spilled storage alike) or the fill scratch.
func TestReleasedSearcherPinsNoStateThroughMemo(t *testing.T) {
	sess := NewSession()
	opts := core.CheckOptions{Exhaustive: true, Parallelism: 1, Session: sess}
	for pass := 0; pass < 2; pass++ { // the second pass is a re-check
		if out := Run(concurrentAddsHistory(7), spec.Set{}, false, opts); out.OK || !out.Complete {
			t.Fatalf("pass %d: the history must be refuted completely: %+v", pass, out)
		}
	}
	pooled := 0
	for c := range sess.searchers {
		for _, w := range sess.searchers[c] {
			pooled++
			if w.tm.live <= tmBlockSlots/2 || len(w.tm.slots) <= tmBlockSlots {
				t.Fatalf("the check must spill the memo: %d live entries, %d slots", w.tm.live, len(w.tm.slots))
			}
			for k, f := range w.tm.succ[:cap(w.tm.succ)] {
				if f.state != nil {
					t.Fatalf("memo arena slot %d pins %v after release", k, f.state)
				}
			}
			for k, f := range w.tm.succBlock {
				if f.state != nil {
					t.Fatalf("embedded memo arena slot %d pins %v after release", k, f.state)
				}
			}
			for k, f := range w.fill[:cap(w.fill)] {
				if f.state != nil {
					t.Fatalf("fill scratch slot %d pins %v after release", k, f.state)
				}
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no searcher was pooled")
	}
}
