package core_test

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/scenario"
)

// BenchmarkIsRALinearization measures the witness check alone on the
// histories the end-to-end benchmark's designated workload checks: each of
// the hot-key, partition-heal, long-fork-attempt and convergence-storm
// library scenarios in designated mode with every phase's Ops ×3, rewritten
// by its plan and linearized by its plan's first strategy (the one that
// decides them). Sixteen histories per scenario (seeds advancing by the 7919
// trial stride) are prepared up front and checked round-robin. Ungated.
// Besides ns/op and allocs/op it reports the spec steps one check takes
// (steps/check) and those the per-query replay reference takes on the same
// inputs (replay-steps/check): the sharing the trie finds in these histories.
func BenchmarkIsRALinearization(b *testing.B) {
	for _, base := range []scenario.Scenario{
		scenario.HotKey(), scenario.PartitionHeal(), scenario.LongForkAttempt(), scenario.ConvergenceStorm(),
	} {
		sc := base
		sc.Mode = scenario.ModeDesignated
		sc.Phases = append([]scenario.Phase(nil), base.Phases...)
		for i := range sc.Phases {
			sc.Phases[i].Ops *= 3
		}
		plan, err := sc.Plan()
		if err != nil {
			b.Fatal(err)
		}
		type input struct {
			h   *core.History
			seq []*core.Label
		}
		var inputs []input
		for i := 0; i < 16; i++ {
			h, err := scenario.Run(sc, 1+int64(i)*7919)
			if err != nil {
				b.Fatal(err)
			}
			rew, err := core.RewriteHistory(h, plan.Options.Rewriting)
			if err != nil {
				b.Fatal(err)
			}
			seq := core.ExecutionOrderLinearization(rew.History)
			if plan.Options.Strategies[0] == core.StrategyTimestampOrder {
				seq = core.TimestampOrderLinearization(rew.History)
			}
			inputs = append(inputs, input{rew.History, seq})
		}
		steps, replaySteps := 0, 0
		for _, in := range inputs {
			steps += countSteps(b, plan.Spec, func(sp core.Spec) error { return core.IsRALinearization(in.h, in.seq, sp) })
			replaySteps += countSteps(b, plan.Spec, func(sp core.Spec) error { return core.ReferenceIsRALinearization(in.h, in.seq, sp) })
		}
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(steps)/float64(len(inputs)), "steps/check")
			b.ReportMetric(float64(replaySteps)/float64(len(inputs)), "replay-steps/check")
			for i := 0; i < b.N; i++ {
				in := inputs[i%len(inputs)]
				if err := core.IsRALinearization(in.h, in.seq, plan.Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingSpec counts the (state, label) transitions stepped through it.
type countingSpec struct {
	core.Spec
	n *int
}

func (c countingSpec) Step(phi core.AbsState, l *core.Label) []core.AbsState {
	*c.n++
	return c.Spec.Step(phi, l)
}

func (c countingSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	*c.n++
	return core.StepInto(c.Spec, dst, phi, l)
}

// countSteps runs check against a counting wrapper of sp, failing on a
// rejection, and returns the number of transitions it stepped.
func countSteps(tb testing.TB, sp core.Spec, check func(core.Spec) error) int {
	n := 0
	if err := check(countingSpec{sp, &n}); err != nil {
		tb.Fatal(err)
	}
	return n
}
