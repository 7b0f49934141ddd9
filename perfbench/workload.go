package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"ralin/internal/core"
	"ralin/internal/scenario"
	"ralin/internal/search"
)

// opsScale multiplies every phase's operation count. At the library's stock
// sizes generation is 50–75% of the pipeline and the search tail vanishes;
// ×3 gives 29–51 operations per history.
const opsScale = 3

// trialStride spaces the scenario seeds of consecutive trials, as
// scenario.Generator does: trial i runs the scenario with seed + i·trialStride.
const trialStride = 7919

// stream is one scenario of a workload together with the plan its histories
// are checked under.
type stream struct {
	sc   scenario.Scenario
	plan scenario.CheckPlan
}

// workload is a named, round-robin mix of streams. Monitor workloads replay
// every history op by op through core.CheckRAExtend; the others check each
// history once through core.CheckRA.
type workload struct {
	name    string
	monitor bool
	streams []stream
}

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"designated", "refute", "monitor"}

// newWorkload builds the named workload.
func newWorkload(name string) (*workload, error) {
	type entry struct {
		sc   scenario.Scenario
		mode scenario.Mode
	}
	w := &workload{name: name}
	var entries []entry
	switch name {
	case "designated":
		// The γ-rewriting and the constructive strategies decide every
		// history: generation, rewriting and strategies, never the search.
		entries = []entry{
			{scenario.HotKey(), scenario.ModeDesignated},
			{scenario.PartitionHeal(), scenario.ModeDesignated},
			{scenario.LongForkAttempt(), scenario.ModeDesignated},
			{scenario.ConvergenceStorm(), scenario.ModeDesignated},
		}
	case "refute":
		// Naive specifications: no rewriting, no strategies; the search
		// decides both polarities, with a heavy tail on partition-heal.
		entries = []entry{
			{scenario.PartitionHeal(), scenario.ModeNaive},
			{scenario.LongForkAttempt(), scenario.ModeNaive},
		}
	case "monitor":
		// Op-by-op replay: certificate replay at the median, Extend's
		// fallback search (refuted prefixes keep no certificate) in the tail.
		w.monitor = true
		entries = []entry{
			{scenario.ConvergenceStorm(), scenario.ModeExhaustive},
			{scenario.RollingRestart(), scenario.ModeExhaustive},
			{scenario.LongForkAttempt(), scenario.ModeNaive},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, e := range entries {
		sc := scaled(e.sc)
		sc.Mode = e.mode
		plan, err := sc.Plan()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		w.streams = append(w.streams, stream{sc: sc, plan: plan})
	}
	return w, nil
}

// scaled returns sc with every phase's operation count multiplied by opsScale.
func scaled(sc scenario.Scenario) scenario.Scenario {
	sc.Phases = append([]scenario.Phase(nil), sc.Phases...)
	for i := range sc.Phases {
		sc.Phases[i].Ops *= opsScale
	}
	return sc
}

// trial names the stream and scenario seed of trial i under the run seed.
// Negative trials are the set-up's warm-up histories, disjoint from the
// measured ones.
func (w *workload) trial(seed int64, i int) (*stream, int64) {
	n := len(w.streams)
	return &w.streams[((i%n)+n)%n], seed + int64(i)*trialStride
}

// generate runs trial i's scenario and applies its plan's reinterpretation,
// giving the history exactly as it is checked.
func (w *workload) generate(seed int64, i int) (*stream, *core.History, error) {
	st, s := w.trial(seed, i)
	h, err := scenario.Run(st.sc, s)
	if err != nil {
		return st, nil, err
	}
	if st.plan.Transform != nil {
		h = st.plan.Transform(h)
	}
	return st, h, nil
}

// options returns the stream's check options for one check on sess: the
// plan's own options with a sequential search. A nil sess gives the
// sessionless reference configuration.
func (st *stream) options(sess *search.Session) core.CheckOptions {
	opts := st.plan.Options
	opts.Parallelism = 1
	if sess != nil {
		opts.Session = sess
	}
	return opts
}

// digest is a 64-bit FNV-1a hash of a history's labels (in insertion order,
// with identifier, rendering, kind, origin and generator sequence) and its
// direct visibility edges. Equal digests identify the same checked input.
func digest(h *core.History) string {
	f := fnv.New64a()
	for _, l := range h.Labels() {
		fmt.Fprintf(f, "%d %s %d %d %d\n", l.ID, l, l.Kind, l.Origin, l.GenSeq)
	}
	h.DirectVisEdges(func(from, to uint64) { fmt.Fprintf(f, "%d>%d\n", from, to) })
	return fmt.Sprintf("%016x", f.Sum64())
}

// prefixPlan is the op-by-op replay order of a finished history, as a monitor
// attached to the live store would have seen it: label k, then the direct
// edges whose later endpoint is label k (harness.MonitorHistory's bucketing).
type prefixPlan struct {
	h       *core.History
	buckets [][]core.VisEdge
}

func newPrefixPlan(h *core.History) (*prefixPlan, error) {
	p := &prefixPlan{h: h, buckets: make([][]core.VisEdge, h.Len())}
	var err error
	h.DirectVisEdges(func(from, to uint64) {
		rf, okf := h.RankOf(from)
		rt, okt := h.RankOf(to)
		if !okf || !okt {
			err = fmt.Errorf("edge endpoint missing from history (%d -> %d)", from, to)
			return
		}
		p.buckets[max(rf, rt)] = append(p.buckets[max(rf, rt)], core.VisEdge{From: from, To: to})
	})
	return p, err
}

// grow appends label k and its edge bucket to g.
func (p *prefixPlan) grow(g *core.History, k int) (*core.Label, error) {
	l := p.h.LabelAt(k)
	if err := g.Add(l); err != nil {
		return nil, fmt.Errorf("replaying op %d: %w", k, err)
	}
	for _, e := range p.buckets[k] {
		if err := g.AddVis(e.From, e.To); err != nil {
			return nil, fmt.Errorf("replaying edges of op %d: %w", k, err)
		}
	}
	return l, nil
}

// prefix builds the history of the first k+1 replayed operations.
func (p *prefixPlan) prefix(k int) (*core.History, error) {
	g := core.NewHistory()
	for j := 0; j <= k; j++ {
		if _, err := p.grow(g, j); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// verdictLetters renders verdicts one letter each: V valid, I invalid,
// U unknown.
func verdictLetters(vs []core.Verdict) string {
	b := make([]byte, len(vs))
	for i, v := range vs {
		switch v {
		case core.VerdictValid:
			b[i] = 'V'
		case core.VerdictInvalid:
			b[i] = 'I'
		default:
			b[i] = 'U'
		}
	}
	return string(b)
}
