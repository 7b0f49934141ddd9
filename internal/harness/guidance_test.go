package harness

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/search"
)

// TestGuidedMatchesRankOrderAllDescriptors is the differential gate on guided
// branch ordering (core.GuidanceGuided), across every CRDT descriptor and
// both polarities: randomized histories plus their corrupted (refuted)
// variants are checked with rank order and with guided ordering, and the
// verdicts — OK, Complete, Verdict — must be byte-identical. Only Nodes and
// wall-clock may differ; on refutations the guided search must not explore
// more nodes than rank order (query commit only ever shrinks the refutation
// DAG). DebugMemo turns any hash-compaction collision into a panic instead of
// a silent mis-prune, so the gate is as strict as the engine can make it.
func TestGuidedMatchesRankOrderAllDescriptors(t *testing.T) {
	for _, d := range registry.All() {
		opts := d.CheckOptions()
		opts.Strategies = nil // force the search on both sides
		opts.Exhaustive = true
		opts.Parallelism = 1
		opts.DebugMemo = true
		var hs []*core.History
		for trial := 0; trial < 4; trial++ {
			cfg := WorkloadConfig{Seed: int64(700*trial + 17), Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
			h, err := RunRandom(d, cfg)
			if err != nil {
				t.Fatalf("%s workload: %v", d.Name, err)
			}
			hs = append(hs, h)
			if bad := corruptQueryRet(h, int64(trial)); bad != nil {
				hs = append(hs, bad)
			}
		}
		rankSess, guidedSess := search.NewSession(), search.NewSession()
		for k, h := range hs {
			rankOpts := opts
			rankOpts.Guidance = core.GuidanceRankOrder
			rank := core.CheckRAWith(h, d.Spec, rankOpts, rankSess)
			guidedOpts := opts
			guidedOpts.Guidance = core.GuidanceGuided
			guided := core.CheckRAWith(h, d.Spec, guidedOpts, guidedSess)
			if rank.Verdict != guided.Verdict {
				t.Errorf("%s history %d: guided verdict %v diverged from rank order %v",
					d.Name, k, guided.Verdict, rank.Verdict)
			}
			if rank.Verdict == core.VerdictInvalid && guided.Nodes > rank.Nodes {
				t.Errorf("%s history %d: guided refutation explored more nodes than rank order: %d > %d",
					d.Name, k, guided.Nodes, rank.Nodes)
			}
		}
	}
}

// TestGuidanceThreadsThroughBatch checks the option plumbing end to end: a
// batch run with Options.Guidance = GuidanceGuided must report the same
// verdict tallies as a rank-order batch over the same workload (guidance is
// verdict-preserving through the whole harness pipeline too).
func TestGuidanceThreadsThroughBatch(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	check := d.CheckOptions()
	check.Strategies = nil
	check.Parallelism = 1
	cfg := WorkloadConfig{Seed: 5, Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
	rank, err := CheckRandomHistoriesWith(d, 6, cfg, Options{BatchWorkers: 1, Check: &check})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := CheckRandomHistoriesWith(d, 6, cfg, Options{BatchWorkers: 1, Guidance: core.GuidanceGuided, Check: &check})
	if err != nil {
		t.Fatal(err)
	}
	if rank.Linearizable != guided.Linearizable || rank.Invalid != guided.Invalid || rank.Unknown != guided.Unknown {
		t.Errorf("guided batch verdicts diverged: rank %+v vs guided %+v", rank, guided)
	}
}
