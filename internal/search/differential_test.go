// Package search_test hosts the differential property test in an external
// test package: it drives random workloads through internal/harness, which
// itself imports internal/search, so an in-package test would be a cycle.
package search_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
)

// TestDifferentialAgainstLegacy is the differential property test of the
// pruned engine: on randomized small histories of every registered CRDT, the
// pruned engine and the legacy generate-then-test enumerator must return
// identical verdicts, and every witness the pruned engine produces must be an
// RA-linearization under the legacy validator. Histories are checked both
// as generated (usually RA-linearizable) and with a corrupted query return
// value (usually not), so both verdict polarities are exercised.
func TestDifferentialAgainstLegacy(t *testing.T) {
	const trials = 6
	for _, d := range registry.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				cfg := harness.WorkloadConfig{
					Seed:         int64(1000*trial + 17),
					Ops:          6,
					Replicas:     3,
					Elems:        []string{"a", "b"},
					DeliveryProb: 40,
				}
				h, err := harness.RunRandom(d, cfg)
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				compareEngines(t, fmt.Sprintf("trial %d", trial), h, d.Spec, d.Rewriting)
				if bad := corruptQuery(h, int64(trial)); bad != nil {
					compareEngines(t, fmt.Sprintf("trial %d (corrupted)", trial), bad, d.Spec, d.Rewriting)
				}
			}
		})
	}
}

// compareEngines checks one history with both engines, constructive
// strategies disabled so the exhaustive phase always runs.
func compareEngines(t *testing.T, ctx string, h *core.History, spec core.Spec, rw core.Rewriting) {
	t.Helper()
	base := core.CheckOptions{Rewriting: rw, Exhaustive: true, MaxExtensions: 2_000_000}
	legacyOpts := base
	legacyOpts.Engine = core.EngineLegacy
	prunedOpts := base
	prunedOpts.Engine = core.EnginePruned
	// Differential runs are exactly where a silent memo hash collision would
	// masquerade as an engine bug; make it a loud invariant instead.
	prunedOpts.DebugMemo = true
	legacy := core.CheckRA(h, spec, legacyOpts)
	pruned := core.CheckRA(h, spec, prunedOpts)
	if legacy.Verdict == core.VerdictUnknown || pruned.Verdict == core.VerdictUnknown {
		t.Fatalf("%s: truncated search (legacy %v, pruned %v)", ctx, legacy.Verdict, pruned.Verdict)
	}
	if legacy.Verdict != pruned.Verdict {
		t.Fatalf("%s: verdicts differ: legacy=%v pruned=%v\nhistory:\n%slegacy err: %v\npruned err: %v",
			ctx, legacy.Verdict, pruned.Verdict, h, legacy.LastErr, pruned.LastErr)
	}
	if pruned.Verdict == core.VerdictValid {
		if err := core.IsRALinearization(pruned.Rewritten, pruned.Linearization, spec); err != nil {
			t.Fatalf("%s: pruned witness rejected by the legacy validator: %v", ctx, err)
		}
	}
}

// corruptQuery clones the history and breaks the return value of one query so
// that the history is (very likely) no longer RA-linearizable. Returns nil
// when the history has no corruptible query.
func corruptQuery(h *core.History, seed int64) *core.History {
	rng := rand.New(rand.NewSource(seed))
	c := h.Clone()
	var queries []*core.Label
	for _, l := range c.Labels() {
		if l.IsQuery() && l.Ret != nil {
			queries = append(queries, l)
		}
	}
	if len(queries) == 0 {
		return nil
	}
	q := queries[rng.Intn(len(queries))]
	switch ret := q.Ret.(type) {
	case int64:
		q.Ret = ret + 1000
	case string:
		q.Ret = ret + "⊥corrupt"
	case []string:
		q.Ret = append(append([]string(nil), ret...), "⊥corrupt")
	default:
		return nil
	}
	return c
}
