package search_test

import (
	"fmt"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/search"
)

// memoCaseNodes bounds every identity-test search: a truncated search must be
// identical with and without the memo too (the node budget is deterministic
// at Parallelism 1), and the bound keeps strong-mode checks of rewriting-free
// histories affordable.
const memoCaseNodes = 100_000

// memoCase is one check of the transition-memo identity tests.
type memoCase struct {
	name   string
	h      *core.History
	spec   core.Spec
	opts   core.CheckOptions
	strong bool
}

func (c memoCase) check(opts core.CheckOptions) core.Result {
	if c.strong {
		return core.CheckStrongLinearizable(c.h, c.spec, opts)
	}
	return core.CheckRA(c.h, c.spec, opts)
}

// memoCases collects every registered descriptor's random histories in both
// polarities (as generated and with a corrupted query), every committed
// corpus entry, and a few large naive-specification scenario histories (whose
// searches outgrow the memo's embedded first block), each in RA and in strong
// mode, with the constructive strategies off so the search decides every
// check.
func memoCases(t testing.TB) []memoCase {
	t.Helper()
	var ra []memoCase
	for _, d := range registry.All() {
		for trial := 0; trial < 3; trial++ {
			cfg := harness.WorkloadConfig{
				Seed:         int64(1000*trial + 29),
				Ops:          7,
				Replicas:     3,
				Elems:        []string{"a", "b"},
				DeliveryProb: 40,
			}
			h, err := harness.RunRandom(d, cfg)
			if err != nil {
				t.Fatalf("%s: workload: %v", d.Name, err)
			}
			opts := core.CheckOptions{Rewriting: d.Rewriting, Exhaustive: true}
			name := fmt.Sprintf("%s/trial%d", d.Name, trial)
			ra = append(ra, memoCase{name: name, h: h, spec: d.Spec, opts: opts})
			if bad := corruptQuery(h, int64(trial)); bad != nil {
				ra = append(ra, memoCase{name: name + "/corrupted", h: bad, spec: d.Spec, opts: opts})
			}
		}
	}
	entries, paths, err := scenario.LoadCorpus("../../testdata/corpus")
	if err != nil || len(entries) == 0 {
		t.Fatalf("loading the corpus: %d entries, %v", len(entries), err)
	}
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
		ra = append(ra, memoCase{name: paths[i], h: h, spec: plan.Spec, opts: opts})
	}
	// Trial numbers as in the refute workload (seed 1 + 7919·trial). Besides
	// trial 0, the partition-heal picks are four of its heaviest searches in
	// the first 300 trials: both polarities, 5 000–11 000 nodes.
	heavy := []struct {
		sc     scenario.Scenario
		trials []int
	}{
		{scenario.PartitionHeal(), []int{0, 38, 92, 109, 136}},
		{scenario.LongForkAttempt(), []int{0, 1, 2, 3}},
	}
	for _, hv := range heavy {
		sc := hv.sc
		sc.Mode = scenario.ModeNaive
		sc.Phases = append([]scenario.Phase(nil), sc.Phases...)
		for k := range sc.Phases {
			sc.Phases[k].Ops *= 3
		}
		plan, err := sc.Plan()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, trial := range hv.trials {
			seed := int64(1 + 7919*trial)
			h, err := scenario.Run(sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			name := fmt.Sprintf("%s-x3/seed%d", sc.Name, seed)
			ra = append(ra, memoCase{name: name, h: plan.Transform(h), spec: plan.Spec, opts: plan.Options})
		}
	}
	cases := ra
	for _, c := range ra {
		c.name += "/strong"
		c.strong = true
		cases = append(cases, c)
	}
	for k := range cases {
		o := &cases[k].opts
		o.Engine = core.EnginePruned
		o.MaxNodes = memoCaseNodes
		o.DebugMemo = true
	}
	return cases
}

// withMemo runs f with the transition memo switched on or off.
func withMemo(on bool, f func()) {
	restore := search.SetTransitionMemo(on)
	defer restore()
	f()
}

// sameSearch reports how on and off differ in verdict, witness or search
// statistics; "" when they are identical.
func sameSearch(on, off core.Result) string {
	if on.Verdict != off.Verdict {
		return fmt.Sprintf("verdict %v vs %v", on.Verdict, off.Verdict)
	}
	if on.Nodes != off.Nodes || on.Pruned != off.Pruned || on.MemoHits != off.MemoHits {
		return fmt.Sprintf("nodes/pruned/memo-hits %d/%d/%d vs %d/%d/%d",
			on.Nodes, on.Pruned, on.MemoHits, off.Nodes, off.Pruned, off.MemoHits)
	}
	if len(on.Linearization) != len(off.Linearization) {
		return fmt.Sprintf("witness length %d vs %d", len(on.Linearization), len(off.Linearization))
	}
	for k := range on.Linearization {
		if on.Linearization[k].ID != off.Linearization[k].ID {
			return fmt.Sprintf("witness differs at %d: %v vs %v", k, on.Linearization[k], off.Linearization[k])
		}
	}
	return ""
}

// TestTransitionMemoIdentity is the identity gate of the check-local
// transition memo: with the memo on and off, every descriptor in both
// polarities and every corpus entry, in RA and strong mode, rank order and
// guided, sessionless and through a session (first contact and re-check, so
// the memo also fronts the session transition cache), must return the same
// verdict, the same witness and the same Nodes/Pruned/MemoHits, with the
// debug memo invariants asserted throughout.
func TestTransitionMemoIdentity(t *testing.T) {
	cases := memoCases(t)
	decided := 0
	for _, guidance := range []core.Guidance{core.GuidanceRankOrder, core.GuidanceGuided} {
		for _, c := range cases {
			opts := c.opts
			opts.Guidance = guidance
			opts.Parallelism = 1
			var on, off core.Result
			withMemo(true, func() { on = c.check(opts) })
			withMemo(false, func() { off = c.check(opts) })
			if d := sameSearch(on, off); d != "" {
				t.Errorf("%s (%v, sessionless): memo on/off differ: %s", c.name, guidance, d)
			}
			if guidance == core.GuidanceRankOrder && on.Verdict != core.VerdictUnknown {
				decided++
			}
		}
		// One session per memo setting, fed the identical check sequence:
		// each history is checked twice, so the second check is a re-check
		// served by the session transition cache behind the memo.
		sessOn, sessOff := search.NewSession(), search.NewSession()
		for _, c := range cases {
			for pass := 0; pass < 2; pass++ {
				opts := c.opts
				opts.Guidance = guidance
				opts.Parallelism = 1
				var on, off core.Result
				withMemo(true, func() { opts.Session = sessOn; on = c.check(opts) })
				withMemo(false, func() { opts.Session = sessOff; off = c.check(opts) })
				if d := sameSearch(on, off); d != "" {
					t.Errorf("%s (%v, session pass %d): memo on/off differ: %s", c.name, guidance, pass, d)
				}
			}
		}
	}
	if decided < len(cases)/2 {
		t.Fatalf("only %d of %d rank-order checks decided within %d nodes: the identity test must cover decided searches", decided, len(cases), memoCaseNodes)
	}
}

// TestTransitionMemoParallelVerdicts runs the identity cases on four workers,
// sessionless and through one shared session: parallel node counts depend on
// scheduling, but the verdict must not depend on the memo. CI runs it under
// the race detector, which also covers the per-worker memo ownership.
func TestTransitionMemoParallelVerdicts(t *testing.T) {
	cases := memoCases(t)
	sess := search.NewSession()
	for _, c := range cases {
		opts := c.opts
		opts.Parallelism = 4
		var off core.Result
		withMemo(false, func() { off = c.check(opts) })
		if off.Verdict == core.VerdictUnknown {
			continue // truncated: a parallel node budget is scheduling-dependent
		}
		on := c.check(opts)
		opts.Session = sess
		shared := c.check(opts)
		if on.Verdict != off.Verdict || shared.Verdict != off.Verdict {
			t.Errorf("%s: parallel verdicts differ: memo on %v, on+session %v, off %v", c.name, on.Verdict, shared.Verdict, off.Verdict)
		}
	}
}

// BenchmarkTransitionMemo is the memo's ablation: the RA-mode identity cases
// (every descriptor in both polarities, the corpus, the heavy naive scenario
// histories) checked sequentially with the memo on and off, sessionless and
// through one warm session. Results are identical by TestTransitionMemoIdentity;
// only time and allocations may differ.
func BenchmarkTransitionMemo(b *testing.B) {
	var cases []memoCase
	for _, c := range memoCases(b) {
		if !c.strong {
			c.opts.DebugMemo = false
			c.opts.Parallelism = 1
			cases = append(cases, c)
		}
	}
	for _, session := range []bool{false, true} {
		for _, on := range []bool{true, false} {
			name := fmt.Sprintf("sessionless/memo=%v", on)
			if session {
				name = fmt.Sprintf("session/memo=%v", on)
			}
			b.Run(name, func(b *testing.B) {
				restore := search.SetTransitionMemo(on)
				defer restore()
				var sess *search.Session
				if session {
					sess = search.NewSession()
				}
				run := func() {
					for _, c := range cases {
						opts := c.opts
						if sess != nil {
							opts.Session = sess
						}
						if res := c.check(opts); res.Verdict == core.VerdictUnknown {
							b.Fatalf("%s: undecided", c.name)
						}
					}
				}
				if session {
					run() // warm the session: pools, interner, seen set
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(len(cases))*float64(b.N)/b.Elapsed().Seconds(), "checks/sec")
			})
		}
	}
}
