package ralin

// Regression tests over the committed scenario corpus (testdata/corpus/):
// the most interesting histories harvested from the fault-schedule scenario
// library — naive-specification refutations and the highest-node positive
// checks. Every entry is replayed against its recorded verdict, and checked
// under both exhaustive engines, so a checker change that flips a verdict or
// an engine divergence shows up here before it ships.

import (
	"context"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/scenario"
	"ralin/internal/search"
)

const corpusDir = "testdata/corpus"

// recordedVerdict is the verdict a corpus entry records: every committed
// entry was decided, Valid when RA-linearizable and Invalid otherwise.
func recordedVerdict(e scenario.Entry) core.Verdict {
	if e.RALinearizable {
		return core.VerdictValid
	}
	return core.VerdictInvalid
}

func loadCorpus(t testing.TB) ([]scenario.Entry, []string) {
	t.Helper()
	entries, paths, err := scenario.LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no corpus entries under %s; regenerate with `make scenarios`", corpusDir)
	}
	return entries, paths
}

// TestScenarioCorpusReplay replays every committed corpus entry and asserts
// the verdict recorded at harvest time.
func TestScenarioCorpusReplay(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		res := core.CheckRA(h, plan.Spec, plan.Options)
		if res.Verdict != recordedVerdict(e) {
			t.Errorf("%s: replay verdict %v, corpus recorded %v (scenario %s seed %d vs %s)",
				paths[i], res.Verdict, recordedVerdict(e), e.Scenario, e.Seed, e.Spec)
		}
	}
}

// TestScenarioCorpusFailSafe replays the whole corpus under hostile resource
// limits and asserts the fail-safe contract: no crash, no wrong verdict —
// every entry comes back Unknown with a populated Incomplete reason. The CI
// workflow runs this under the race detector.
func TestScenarioCorpusFailSafe(t *testing.T) {
	entries, paths := loadCorpus(t)

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		<-ctx.Done() // expire first, so every entry deterministically hits it
		for i, e := range entries {
			h, err := e.History()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			plan, err := e.Plan()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			opts := plan.Options
			opts.Context = ctx
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict != core.VerdictUnknown {
				t.Errorf("%s: expired deadline must yield Unknown, got %v (%+v)", paths[i], res.Verdict, res.Incomplete)
				continue
			}
			if res.Incomplete == nil || res.Incomplete.Reason != core.ReasonDeadline {
				t.Errorf("%s: want ReasonDeadline, got %+v", paths[i], res.Incomplete)
			}
		}
	})

	t.Run("mem-budget", func(t *testing.T) {
		sess := search.NewSessionWithBudget(search.Budget{MaxInternedStates: 1, MaxMemoBytes: 1})
		for i, e := range entries {
			h, err := e.History()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			plan, err := e.Plan()
			if err != nil {
				t.Fatalf("%s: %v", paths[i], err)
			}
			opts := plan.Options
			opts.Strategies = nil // force the search; a constructive witness would dodge the budget
			opts.Exhaustive = true
			opts.Engine = core.EnginePruned
			opts.Parallelism = 1
			opts.MaxNodes = 1 // the degraded, memo-less search must then truncate
			opts.Session = sess
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict != core.VerdictUnknown {
				t.Errorf("%s: tripped budget must yield Unknown, got %v (%+v)", paths[i], res.Verdict, res.Incomplete)
				continue
			}
			if res.Incomplete == nil || res.Incomplete.Reason == "" {
				t.Errorf("%s: Unknown verdict must carry a reason: %+v", paths[i], res.Incomplete)
				continue
			}
			if r := res.Incomplete.Reason; r != core.ReasonMemBudget && r != core.ReasonNodeBudget {
				t.Errorf("%s: want mem-budget/node-budget reason, got %q", paths[i], r)
			}
		}
	})
}

// TestScenarioCorpusGuidedDifferential is the corpus-wide differential gate
// on guided branch ordering: every committed entry is checked with rank order
// and with guided ordering (sequential, strategies disabled so the engine
// actually searches), and the verdicts must be byte-identical — only Nodes
// may change. On refutations guided must never explore more nodes than rank
// order: the query-commit reduction only ever shrinks the refutation DAG,
// while pure sibling reordering leaves it untouched. DebugMemo is on for
// every replay, so the run doubles as the corpus-wide soak of the memo
// table's collision check and of the word-folded/legacy key bijection (a
// bitset memo key that split or merged configurations the sorted-ID key
// distinguished would panic here).
func TestScenarioCorpusGuidedDifferential(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Strategies = nil
		opts.Exhaustive = true
		opts.Engine = core.EnginePruned
		opts.Parallelism = 1
		opts.DebugMemo = true
		opts.Guidance = core.GuidanceRankOrder
		rank := core.CheckRA(h, plan.Spec, opts)
		opts.Guidance = core.GuidanceGuided
		guided := core.CheckRA(h, plan.Spec, opts)
		if rank.Verdict != guided.Verdict {
			t.Errorf("%s: guided verdict %v diverged from rank order %v", paths[i], guided.Verdict, rank.Verdict)
			continue
		}
		if rank.Verdict != recordedVerdict(e) {
			t.Errorf("%s: verdict %v does not match corpus record %v", paths[i], rank.Verdict, recordedVerdict(e))
		}
		if rank.Verdict == core.VerdictInvalid && guided.Nodes > rank.Nodes {
			t.Errorf("%s: guided refutation explored more nodes than rank order: %d > %d",
				paths[i], guided.Nodes, rank.Nodes)
		}
	}
}

// TestScenarioCorpusEnginesAgree checks every corpus entry with the pruned
// and legacy exhaustive engines (constructive strategies disabled, so both
// engines actually search) and asserts they reach the recorded verdict.
func TestScenarioCorpusEnginesAgree(t *testing.T) {
	entries, paths := loadCorpus(t)
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Strategies = nil
		opts.Exhaustive = true
		opts.MaxExtensions = 500000
		for _, engine := range []core.Engine{core.EnginePruned, core.EngineLegacy} {
			opts.Engine = engine
			res := core.CheckRA(h, plan.Spec, opts)
			if res.Verdict == core.VerdictUnknown {
				t.Errorf("%s: engine %v did not decide the entry within budget", paths[i], engine)
				continue
			}
			if res.Verdict != recordedVerdict(e) {
				t.Errorf("%s: engine %v verdict %v, corpus recorded %v", paths[i], engine, res.Verdict, recordedVerdict(e))
			}
		}
	}
}
