package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ralin/internal/core"
	"ralin/internal/search"
)

// The traced run times each layer of a check from outside, through the
// layer's own public entry point, in the order core.CheckRA runs them:
// core.RewriteForCheck (plus the acyclicity test of its output), the
// constructive strategies with core.IsRALinearization, and search.Run. For
// the monitor, each core.CheckRAExtend call is timed whole and bucketed by
// the rung of the extension ladder that decided it. Every history is first
// checked untraced on one shared session and then re-driven traced on a
// second session of the same kind; the two verdicts must agree.

// memStats is reused by allocs so that reading the counter allocates nothing.
var memStats runtime.MemStats

// allocs returns the process's cumulative heap allocation count. It stops the
// world, so it is only read outside timed spans.
func allocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// span is one layer's accumulated time and allocations.
type span struct {
	calls  int
	time   time.Duration
	allocs uint64
}

func (s *span) add(d time.Duration, a uint64) {
	s.calls++
	s.time += d
	s.allocs += a
}

// layers is the traced run's per-layer account.
type layers struct {
	histories int
	checks    int
	ops       int
	gen       span

	rewrite     span
	rewriteHits int

	strategy     span
	strategyHits int

	search     span
	nodes      int
	pruned     int
	memoHits   int
	planReused int

	replay, extSearch, rebuild span
	extNodes                   int

	// untraced is the time the same checks took untraced, on the other
	// session.
	untraced time.Duration
}

// traceCheck re-drives core.CheckRA's sequence on h and returns the verdict
// it reaches.
func traceCheck(h *core.History, st *stream, sess *search.Session, ly *layers) core.Verdict {
	opts := st.options(sess)
	spec := st.plan.Spec

	a0 := allocs()
	t0 := cpuNow()
	rew, cached, err := core.RewriteForCheck(h, opts)
	acyclic := err == nil && rew.History.IsAcyclic()
	d := latency(t0, cpuNow())
	ly.rewrite.add(d, allocs()-a0)
	if cached {
		ly.rewriteHits++
	}
	if !acyclic {
		return core.VerdictInvalid
	}

	for _, s := range opts.Strategies {
		a0 := allocs()
		t0 := cpuNow()
		var seq []*core.Label
		switch s {
		case core.StrategyExecutionOrder:
			seq = core.ExecutionOrderLinearization(rew.History)
		case core.StrategyTimestampOrder:
			seq = core.TimestampOrderLinearization(rew.History)
		default:
			continue
		}
		ok := core.IsRALinearization(rew.History, seq, spec) == nil
		d := latency(t0, cpuNow())
		ly.strategy.add(d, allocs()-a0)
		if ok {
			ly.strategyHits++
			return core.VerdictValid
		}
	}
	if !opts.Exhaustive {
		return core.VerdictUnknown
	}

	a0 = allocs()
	t0 = cpuNow()
	out := search.Run(rew.History, spec, false, opts)
	d = latency(t0, cpuNow())
	ly.search.add(d, allocs()-a0)
	ly.nodes += out.Nodes
	ly.pruned += out.Pruned
	ly.memoHits += out.MemoHits
	if out.PlanReused {
		ly.planReused++
	}
	switch {
	case out.OK:
		return core.VerdictValid
	case out.Complete:
		return core.VerdictInvalid
	default:
		return core.VerdictUnknown
	}
}

// runTraced is the traced run: the same closed loop as runUntraced, with
// every history checked untraced on session A and re-driven layer by layer on
// session B.
func runTraced(w *workload, cfg config) (*report, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	measureClockOverhead()
	calib := calibrate()
	sessA, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sessB, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()

	var ly layers
	var recs []trialRec
	loopStart := time.Now() // the run length is wall time
	for i := 0; !cfg.done(loopStart, i, ly.checks); i++ {
		rec := trialRec{trial: i}
		a0 := allocs()
		t0 := cpuNow()
		st, h, err := w.generate(cfg.seed, i)
		d := latency(t0, cpuNow())
		ly.gen.add(d, allocs()-a0)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		ly.histories++
		ly.ops += h.Len()
		if !w.monitor {
			t0 := cpuNow()
			res := core.CheckRA(h, st.plan.Spec, st.options(sessA))
			ly.untraced += latency(t0, cpuNow())
			ly.checks++
			rec.verdicts = []core.Verdict{res.Verdict}
			if !auditWitness(&res, st.plan.Spec) {
				rec.auditBad = append(rec.auditBad, 0)
			}
			if v := traceCheck(h, st, sessB, &ly); v != res.Verdict {
				rec.parityBad = append(rec.parityBad, 0)
			}
		} else if err := traceMonitor(h, st, sessA, sessB, &ly, &rec); err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		recs = append(recs, rec)
	}

	rep := &report{workload: w.name, seed: cfg.seed, traced: true, recs: recs}
	o, err := newOracle(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := o.verify(recs, &rep.tally); err != nil {
		return nil, err
	}
	if err := o.canary(&rep.tally); err != nil {
		return nil, err
	}
	layerSum := ly.rewrite.time + ly.strategy.time + ly.search.time +
		ly.replay.time + ly.extSearch.time + ly.rebuild.time
	rep.overhead = ratio(float64(layerSum), float64(ly.untraced)) - 1
	if ly.checks >= attributionMinChecks && math.Abs(rep.overhead) > maxTraceOverhead {
		rep.attributionBad = true
	}
	perCheck := func(x float64) float64 { return ratio(x, float64(ly.checks)) }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	meanUS := func(s span) float64 { return ratio(us(s.time), float64(s.calls)) }
	ext := float64(ly.replay.calls + ly.extSearch.calls + ly.rebuild.calls)
	rep.metrics = map[string]float64{
		"scenario.gen_us":     ratio(us(ly.gen.time), float64(ly.histories)),
		"scenario.gen_allocs": ratio(float64(ly.gen.allocs), float64(ly.histories)),
		"scenario.ops":        ratio(float64(ly.ops), float64(ly.histories)),

		"rewrite.us":              perCheck(us(ly.rewrite.time)),
		"rewrite.allocs":          perCheck(float64(ly.rewrite.allocs)),
		"rewrite.cache_hit_ratio": ratio(float64(ly.rewriteHits), float64(ly.rewrite.calls)),

		"strategy.us":        perCheck(us(ly.strategy.time)),
		"strategy.tries":     perCheck(float64(ly.strategy.calls)),
		"strategy.hit_ratio": ratio(float64(ly.strategyHits), float64(ly.strategy.calls)),

		"search.us":                perCheck(us(ly.search.time)),
		"search.nodes":             perCheck(float64(ly.nodes)),
		"search.pruned":            perCheck(float64(ly.pruned)),
		"search.memo_hits":         perCheck(float64(ly.memoHits)),
		"search.memo_hit_ratio":    ratio(float64(ly.memoHits), float64(ly.nodes)),
		"search.ns_per_node":       ratio(float64(ly.search.time.Nanoseconds()), float64(ly.nodes)),
		"search.allocs":            perCheck(float64(ly.search.allocs)),
		"search.plan_reused_ratio": ratio(float64(ly.planReused), float64(ly.search.calls)),

		"extend.replay_us":      meanUS(ly.replay),
		"extend.search_us":      meanUS(ly.extSearch),
		"extend.rebuild_us":     meanUS(ly.rebuild),
		"extend.replayed_ratio": ratio(float64(ly.replay.calls), ext),
		"extend.searched_ratio": ratio(float64(ly.extSearch.calls), ext),
		"extend.rebuilt_ratio":  ratio(float64(ly.rebuild.calls), ext),
		"extend.nodes":          ratio(float64(ly.extNodes), ext),

		"session.interned_states": float64(sessB.InternedStates()),
		"session.evictions":       float64(sessB.Evictions()),

		"trace.overhead_ratio": rep.overhead,
		"host.calib_us":        calib,
	}
	rep.checks = ly.checks
	return rep, nil
}

// maxTraceOverhead bounds |trace.overhead_ratio|: the traced layer times must
// add up to the untraced check time within this share, or the trace does not
// account for where the time goes and the run is marked incorrect. The check
// applies from attributionMinChecks checks on; a handful of checks is too few
// for their sums to compare (one garbage collection decides them).
const (
	maxTraceOverhead     = 0.5
	attributionMinChecks = 1000
)

// traceMonitor replays h op by op on two prefix histories in lockstep: one
// checked untraced on sessA, one traced on sessB, bucketed by extension rung.
func traceMonitor(h *core.History, st *stream, sessA, sessB *search.Session, ly *layers, rec *trialRec) error {
	p, err := newPrefixPlan(h)
	if err != nil {
		return err
	}
	gA, gB := core.NewHistory(), core.NewHistory()
	optsA, optsB := st.options(sessA), st.options(sessB)
	newOps := make([]*core.Label, 1)
	for k := 0; k < h.Len(); k++ {
		l, err := p.grow(gA, k)
		if err != nil {
			return err
		}
		if _, err := p.grow(gB, k); err != nil {
			return err
		}
		newOps[0] = l
		t0 := cpuNow()
		resA := core.CheckRAExtend(gA, st.plan.Spec, newOps, optsA)
		ly.untraced += latency(t0, cpuNow())
		ly.checks++

		t0 = cpuNow()
		resB := core.CheckRAExtend(gB, st.plan.Spec, newOps, optsB)
		d := latency(t0, cpuNow())
		switch {
		case resB.WitnessReplayed:
			ly.replay.add(d, 0)
		case resB.Extended:
			ly.extSearch.add(d, 0)
		default:
			ly.rebuild.add(d, 0)
		}
		ly.extNodes += resB.Nodes

		rec.verdicts = append(rec.verdicts, resA.Verdict)
		if !auditWitness(&resA, st.plan.Spec) {
			rec.auditBad = append(rec.auditBad, k)
		}
		if resB.Verdict != resA.Verdict {
			rec.parityBad = append(rec.parityBad, k)
		}
	}
	return nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
