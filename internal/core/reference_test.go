package core

import (
	"fmt"
	"sort"
)

// The reference implementations below are the witness check and the
// timestamp-order sort as they were before the shared-prefix trie and the
// precomputed timestamps. They stay in the test binary as the oracles of the
// differential tests and of FuzzIsRALinearization: every error of
// IsRALinearization must match ReferenceIsRALinearization byte for byte, and
// TimestampOrderLinearization must return ReferenceTimestampOrder's order.

// ReferenceIsRALinearization checks conditions (i)–(iii) of Definition 3.5
// by replaying the update projection, and then every query's justification,
// from the initial state.
func ReferenceIsRALinearization(h *History, seq []*Label, spec Spec) error {
	// The definition applies to histories of queries and updates only.
	for _, l := range h.Labels() {
		if l.IsQueryUpdate() {
			return fmt.Errorf("label %v is a query-update; apply a rewriting first", l)
		}
	}
	// (i) seq is consistent with the visibility relation.
	if err := referenceConsistentWithVis(h, seq); err != nil {
		return fmt.Errorf("condition (i): %w", err)
	}
	// (ii) the projection of seq to updates is admitted by the specification.
	updates := filterLabels(seq, (*Label).IsUpdate)
	if !Admits(spec, updates) {
		i := FirstRejected(spec, updates)
		return fmt.Errorf("condition (ii): update projection rejected by %s at %v",
			spec.Name(), updates[i])
	}
	// (iii) each query is justified by the visible updates in sequence order.
	for _, q := range seq {
		if !q.IsQuery() {
			continue
		}
		visible := filterLabels(updates, func(u *Label) bool { return h.Vis(u.ID, q.ID) })
		justification := append(append([]*Label(nil), visible...), q)
		if !Admits(spec, justification) {
			return fmt.Errorf("condition (iii): query %v not justified by its visible updates %s",
				q, FormatLabels(visible))
		}
	}
	return nil
}

// referenceConsistentWithVis is ConsistentWithVis with positions in a map
// keyed by label identifier.
func referenceConsistentWithVis(h *History, seq []*Label) error {
	if len(seq) != h.Len() {
		return fmt.Errorf("sequence has %d labels, history has %d", len(seq), h.Len())
	}
	pos := make(map[uint64]int, len(seq))
	for i, l := range seq {
		if h.byID[l.ID].label == nil {
			return fmt.Errorf("sequence label %v not in history", l)
		}
		if _, dup := pos[l.ID]; dup {
			return fmt.Errorf("sequence repeats label %v", l)
		}
		pos[l.ID] = i
	}
	for r, row := range h.reach {
		from := h.seq[r]
		var bad *Label
		row.forEach(func(s int) {
			if bad == nil && pos[from.ID] > pos[h.seq[s].ID] {
				bad = h.seq[s]
			}
		})
		if bad != nil {
			return fmt.Errorf("sequence orders %v before %v against visibility", bad, from)
		}
	}
	return nil
}

// ReferenceTimestampOrder is TimestampOrderLinearization computing both
// history timestamps inside every comparison.
func ReferenceTimestampOrder(h *History) []*Label {
	seq := h.Labels()
	sort.SliceStable(seq, func(i, j int) bool {
		ti, tj := h.HistoryTimestamp(seq[i]), h.HistoryTimestamp(seq[j])
		if c := ti.Compare(tj); c != 0 {
			return c < 0
		}
		if seq[i].GenSeq != seq[j].GenSeq {
			return seq[i].GenSeq < seq[j].GenSeq
		}
		return seq[i].ID < seq[j].ID
	})
	return seq
}

// filterLabels returns the labels of seq satisfying keep, preserving order.
func filterLabels(seq []*Label, keep func(*Label) bool) []*Label {
	var out []*Label
	for _, l := range seq {
		if keep(l) {
			out = append(out, l)
		}
	}
	return out
}

// FirstRejected returns the index of the first label of seq that cannot be
// applied (following any nondeterministic branch), or -1 if the whole
// sequence is admitted.
func FirstRejected(s Spec, seq []*Label) int {
	states := []AbsState{s.Init()}
	for i, l := range seq {
		var next []AbsState
		for _, phi := range states {
			next = StepInto(s, next, phi, l)
		}
		states = DedupStates(next)
		if len(states) == 0 {
			return i
		}
	}
	return -1
}
