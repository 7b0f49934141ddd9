// Package harness drives the experiments of the reproduction: random
// workloads over the CRDT runtimes, the Figure 12 verification table, the
// worked figures of the paper (2, 3, 5, 8, 9, 10, 13, 14 and the Section 3.3
// client-reasoning exercise), and an exhaustive schedule explorer for small
// programs. The cmd/ binaries and the benchmark suite are thin wrappers over
// this package.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	gruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
	"ralin/internal/search"
)

// WorkloadConfig describes a random workload over one CRDT object.
type WorkloadConfig struct {
	// Seed seeds the workload generator.
	Seed int64
	// Ops is the number of operations issued.
	Ops int
	// Replicas is the number of replicas.
	Replicas int
	// Elems is the element alphabet for set- and register-like types.
	Elems []string
	// DeliveryProb is the per-step probability (in percent) of performing a
	// propagation step between operations.
	DeliveryProb int
	// FinalDelivery delivers everything at the end of the workload.
	FinalDelivery bool
}

// DefaultWorkload returns a small workload suitable for checker experiments:
// exhaustive linearization search stays cheap below roughly a dozen
// operations.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Seed:          1,
		Ops:           8,
		Replicas:      3,
		Elems:         []string{"a", "b", "c"},
		DeliveryProb:  40,
		FinalDelivery: false,
	}
}

func (c *WorkloadConfig) fill() {
	if c.Ops <= 0 {
		c.Ops = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if len(c.Elems) == 0 {
		c.Elems = []string{"a", "b", "c"}
	}
	if c.DeliveryProb < 0 {
		c.DeliveryProb = 0
	}
	if c.DeliveryProb > 100 {
		c.DeliveryProb = 100
	}
}

// RunRandom executes one random workload against the descriptor's runtime
// (operation-based or state-based) and returns the resulting history.
func RunRandom(d crdt.Descriptor, cfg WorkloadConfig) (*core.History, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if d.OpType != nil {
		sys := d.NewOpSystem(runtime.Config{Replicas: cfg.Replicas})
		for i := 0; i < cfg.Ops; i++ {
			if _, err := d.RandomOp(rng, sys, cfg.Elems); err != nil {
				return nil, fmt.Errorf("%s workload: %w", d.Name, err)
			}
			if rng.Intn(100) < cfg.DeliveryProb {
				sys.DeliverRandom(rng)
			}
		}
		if cfg.FinalDelivery {
			if err := sys.DeliverAll(); err != nil {
				return nil, err
			}
		}
		return sys.History(), nil
	}
	sys := d.NewSBSystem(runtime.Config{Replicas: cfg.Replicas})
	for i := 0; i < cfg.Ops; i++ {
		if _, err := d.RandomOp(rng, sys, cfg.Elems); err != nil {
			return nil, fmt.Errorf("%s workload: %w", d.Name, err)
		}
		if rng.Intn(100) < cfg.DeliveryProb {
			sys.ExchangeRandom(rng)
		}
	}
	if cfg.FinalDelivery {
		if err := sys.DeliverAll(); err != nil {
			return nil, err
		}
	}
	return sys.History(), nil
}

// HistoryCheck summarises checking a batch of random histories of one CRDT.
type HistoryCheck struct {
	// CRDT is the data type name.
	CRDT string
	// Histories is the number of histories generated and checked.
	Histories int
	// Operations is the total number of operations across all histories.
	Operations int
	// Linearizable counts the histories with VerdictValid (a witness
	// RA-linearization was found).
	Linearizable int
	// Invalid counts the histories with VerdictInvalid (search space
	// exhausted, no witness) — definitive refutations, as opposed to the
	// Unknown trials below.
	Invalid int
	// Unknown counts the trials that reached no decision: truncated by a
	// deadline, a node or memory budget, cancellation, or a recovered panic —
	// including trials the batch never dispatched because it was cancelled
	// first. Unknown trials are never folded into Linearizable or Invalid.
	Unknown int
	// UnknownByReason breaks Unknown down by core.IncompleteReason string.
	UnknownByReason map[string]int
	// UnknownExample describes the first Unknown trial (by trial index).
	UnknownExample string
	// Degraded counts the trials whose check ran (partly) memo-less because
	// the session memory budget tripped; their verdicts are still sound.
	Degraded int
	// ByStrategy counts witnesses per constructive strategy; histories
	// resolved only by the exhaustive search are counted under "exhaustive".
	ByStrategy map[string]int
	// Tried is the total number of candidate sequences examined.
	Tried int
	// Nodes is the total number of prefix nodes the pruned engine explored
	// across all histories (zero under the legacy engine).
	Nodes int
	// Pruned is the total number of subtrees the pruned engine cut off.
	Pruned int
	// MemoHits is the total number of subtrees skipped by memoization.
	MemoHits int
	// Steals is the total number of work-stealing donations run by another
	// worker.
	Steals int
	// Shards is the widest stripe count of the pruned engine's shared memo
	// table (zero when memoization never ran).
	Shards int
	// BatchWorkers is the number of goroutines the batch pool checked trials
	// across.
	BatchWorkers int
	// MaxInnerParallelism is the widest inner search parallelism any trial of
	// the batch ran with. Under the adaptive batch/inner split this grows as
	// the batch drains (a wide batch starts its searches sequential and the
	// tail re-widens them over the idling cores); for pinned options it is
	// just the pinned value, and 0 means unbounded (GOMAXPROCS).
	MaxInnerParallelism int
	// InternedStates is the number of distinct abstract states interned by
	// the batch's shared engine session — the state vocabulary reused across
	// histories instead of being rebuilt per check. Zero when sessions were
	// fresh per history or the exhaustive engine never ran.
	InternedStates int
	// PlanReuses counts the trials whose prepared history plan (the
	// preds/succs/affected/order index arrays) came from the session's plan
	// pool instead of being allocated. At most one trial per concurrently
	// running worker misses once the pool is warm.
	PlanReuses int
	// RewriteHits counts the trials whose γ-rewriting was served from the
	// session's rewrite cache — nonzero only when the same history object is
	// checked more than once through one session.
	RewriteHits int
	// FailureExample describes the first definitively non-linearizable
	// history (by trial index), if any.
	FailureExample string
	// Prefixes is the number of prefixes the incremental monitor
	// (MonitorGenerated) checked op-by-op. It and the three counters below
	// are zero for the batch entry points.
	Prefixes int
	// Replayed counts the monitor verdicts produced by replaying the
	// previous witness as a certificate.
	Replayed int
	// ExtendSearches counts the monitor's extended fallback searches over the
	// grown plan.
	ExtendSearches int
	// Rebuilds counts the prefixes whose extension preconditions failed, so
	// the monitor checked them by a plain warm pass.
	Rebuilds int
}

// OK reports whether every history was RA-linearizable. Unknown trials count
// against OK — an undecided batch must not read as a clean one.
func (h HistoryCheck) OK() bool { return h.Linearizable == h.Histories }

// HistoryGenerator produces the histories a batch checks: trial i of the
// batch calls Generate(i). Implementations must be safe for concurrent calls
// with distinct trial indices (the batch pool fans trials across workers) and
// deterministic per trial index, so batch results do not depend on worker
// count. The returned seed is only reporting metadata (it labels the trial's
// FailureExample); the generator derives it from the trial index however it
// likes.
type HistoryGenerator interface {
	Generate(trial int) (h *core.History, seed int64, err error)
}

// GeneratorFunc adapts a function to the HistoryGenerator interface.
type GeneratorFunc func(trial int) (*core.History, int64, error)

// Generate calls the function.
func (f GeneratorFunc) Generate(trial int) (*core.History, int64, error) { return f(trial) }

// RandomGenerator is the uniform random workload generator behind
// CheckRandomHistories: trial i runs RunRandom with seed Cfg.Seed+i·7919.
type RandomGenerator struct {
	// Desc is the CRDT whose runtime executes the workloads.
	Desc crdt.Descriptor
	// Cfg is the workload configuration; trial i replaces its seed.
	Cfg WorkloadConfig
}

// Generate runs one random workload.
func (g RandomGenerator) Generate(trial int) (*core.History, int64, error) {
	cfg := g.Cfg
	cfg.fill()
	cfg.Seed = g.Cfg.Seed + int64(trial)*7919
	h, err := RunRandom(g.Desc, cfg)
	return h, cfg.Seed, err
}

// CheckGenerated checks trials histories drawn from the generator against the
// descriptor's specification, using the descriptor's designated checker
// options (overridable via o.Check). Trials are fanned across a bounded
// worker pool sharing one engine session, and the aggregation is folded in
// trial order, so the result is deterministic regardless of worker count or
// completion order (given deterministic per-check options).
func CheckGenerated(d crdt.Descriptor, gen HistoryGenerator, trials int, o Options) (HistoryCheck, error) {
	opts := d.CheckOptions()
	if o.Check != nil {
		opts = *o.Check
	}
	return runBatch(d.Name, d.Spec, opts, trials, gen.Generate, o)
}

// CheckGeneratedAgainst is CheckGenerated against an arbitrary specification
// and explicit checker options (o.Check is ignored) — the entry point for
// checking generated histories against a different specification than the
// generating descriptor's, such as the scenario library's naive-specification
// refutation probes.
func CheckGeneratedAgainst(name string, sp core.Spec, opts core.CheckOptions, gen HistoryGenerator, trials int, o Options) (HistoryCheck, error) {
	return runBatch(name, sp, opts, trials, gen.Generate, o)
}

// CheckRandomHistories generates trials random histories of the CRDT and
// checks each for RA-linearizability with the descriptor's designated
// strategy (falling back to the other strategy and a bounded exhaustive
// search), under the default Options.
func CheckRandomHistories(d crdt.Descriptor, trials int, cfg WorkloadConfig) (HistoryCheck, error) {
	return CheckRandomHistoriesWith(d, trials, cfg, Options{})
}

// CheckRandomHistoriesWith is CheckRandomHistories with explicit options: a
// thin wrapper plugging RandomGenerator into CheckGenerated. Trial i always
// uses seed cfg.Seed+i·7919.
func CheckRandomHistoriesWith(d crdt.Descriptor, trials int, cfg WorkloadConfig, o Options) (HistoryCheck, error) {
	cfg.fill()
	return CheckGenerated(d, RandomGenerator{Desc: d, Cfg: cfg}, trials, o)
}

// CheckHistoryBatch checks a batch of pre-built histories against one
// specification through the same shared-session worker pool as
// CheckRandomHistories. The explicit opts parameter is the per-trial checker
// configuration (o.Check is ignored here). The failure example of trial i is
// reported under "seed i" (the trial index).
func CheckHistoryBatch(name string, sp core.Spec, opts core.CheckOptions, hs []*core.History, o Options) (HistoryCheck, error) {
	gen := func(i int) (*core.History, int64, error) { return hs[i], int64(i), nil }
	return runBatch(name, sp, opts, len(hs), gen, o)
}

// adaptiveParallelism is the policy of the adaptive batch/inner split: the
// inner search parallelism granted to a trial starting while pending trials
// (including itself) remain unfinished, on a machine with gmp cores shared by
// workers batch goroutines. While the batch is wide (pending ≥ workers) every
// busy worker gets its fair core share — gmp/workers, the old static split,
// sequential on machines the batch already saturates. As the batch drains
// below the worker count the idle workers' cores are handed back, so the last
// heavy searches of a batch fan out instead of serializing on one core each.
//
// The split is additionally weighted by history size: weight is this trial's
// cost proxy (ops² — linearization search cost grows superlinearly in the
// operation count) and liveWeight the total over the in-flight trials. A
// trial carrying more than its headcount share of the live work gets cores
// proportional to its weight share instead, so heavy-tail histories widen
// while the batch is still wide — which matters once a deadline can expire
// mid-batch: the heavy trial is the one that would otherwise still be running
// sequentially when the clock runs out. Zero weights (pinned or unknown)
// fall back to the pure headcount split.
func adaptiveParallelism(gmp, workers int, pending, weight, liveWeight int64) int {
	active := int64(workers)
	if pending < active {
		active = pending
	}
	if active < 1 {
		active = 1
	}
	par := gmp / int(active)
	if weight > 0 && liveWeight >= weight {
		if wpar := int((int64(gmp)*weight + liveWeight - 1) / liveWeight); wpar > par {
			par = wpar
		}
	}
	if par > gmp {
		par = gmp
	}
	if par < 1 {
		par = 1
	}
	return par
}

// runBatch is the batch pipeline: a bounded worker pool generates and checks
// trials over one shared engine session, and the per-trial results are folded
// in trial order so stats, ByStrategy and the first FailureExample do not
// depend on completion order. The pipeline is fail-safe: a deadline or
// cancellation stops dispatch and interrupts running checks (skipped trials
// are reported Unknown, not dropped), and a panicking trial — a crashing
// spec, generator, or engine bug — is recovered into one Unknown outcome
// while every other trial's verdict is unaffected.
func runBatch(name string, sp core.Spec, opts core.CheckOptions, trials int, gen func(int) (*core.History, int64, error), o Options) (HistoryCheck, error) {
	workers := o.BatchWorkers
	if workers <= 0 {
		workers = gruntime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	opts = o.Tune(opts)
	// Wire the batch deadline/cancellation: o.Timeout derives a deadline from
	// o.Context (or the background context), and the resulting context is
	// threaded into every check that does not pin its own, so one expiry
	// interrupts the dispatch loop and all in-flight searches alike.
	ctx := o.Context
	if o.Timeout > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, o.Timeout)
		defer cancel()
	}
	if opts.Context == nil {
		opts.Context = ctx
	}
	ctxDead := func() bool { return ctx != nil && ctx.Err() != nil }
	// Adaptive batch/inner split: divide the cores between the batch pool
	// and each check's inner search rather than oversubscribing, and re-widen
	// the inner searches as the batch drains. A wide batch (pending trials ≥
	// workers) runs each search sequentially, exactly like the old static
	// GOMAXPROCS/workers split; once fewer trials remain than workers, the
	// idling cores are handed back to the remaining searches (say the last 2
	// heavy histories on 16 cores each get 8 workers), so the batch tail no
	// longer serializes on one core per trial. Callers pinning Parallelism
	// (or Workers ≤ 1) keep full control — and fully deterministic per-trial
	// search statistics, which the adaptive tail trades away (parallel node
	// counts track sequential but are not bit-stable).
	adaptiveInner := workers > 1 && opts.Parallelism == 0
	gmp := gruntime.GOMAXPROCS(0)
	var pending atomic.Int64
	pending.Store(int64(trials))
	// liveWeight sums the ops² cost proxy of the in-flight trials, feeding
	// the weighted adaptive split.
	var liveWeight atomic.Int64
	var sess *search.Session
	if !o.FreshSessions {
		sess = search.NewSessionWithBudget(o.Budget)
	}

	results := make([]trialResult, trials)
	// failed stops the dispatch of further trials once any trial errors, so
	// a failing batch does not burn through its remaining histories first.
	// Only dispatch stops — already-dispatched trials drain normally, and
	// indices are dispatched in order, so every trial below the first
	// erroring index has run and the fold below still reports the
	// lowest-index error deterministically.
	var failed atomic.Bool
	runTrial := func(i int) {
		defer pending.Add(-1)
		// Panic isolation: a crashing spec step, generator, or engine bug in
		// one trial becomes that trial's Unknown outcome (stack captured in
		// the detail) instead of killing the batch; every other trial's
		// verdict is computed exactly as if this trial had merely timed out.
		defer func() {
			if r := recover(); r != nil {
				tr := &results[i]
				tr.verdict = core.VerdictUnknown
				tr.incReason = string(core.ReasonPanic)
				tr.incDetail = fmt.Sprintf("trial panicked: %v\n%s", r, debug.Stack())
			}
		}()
		h, seed, err := gen(i)
		results[i].seed = seed
		if err != nil {
			results[i].err = err
			failed.Store(true)
			return
		}
		ops := h.Len()
		results[i].ops = ops
		w := int64(ops) * int64(ops)
		if w < 1 {
			w = 1
		}
		liveWeight.Add(w)
		defer liveWeight.Add(-w)
		trialOpts := opts
		if adaptiveInner {
			trialOpts.Parallelism = adaptiveParallelism(gmp, workers, pending.Load(), w, liveWeight.Load())
		}
		results[i].innerPar = trialOpts.Parallelism
		res := core.CheckRAWith(h, sp, trialOpts, sess)
		results[i].record(&res)
	}
	dispatched := 0
	if workers <= 1 {
		for i := 0; i < trials && !failed.Load() && !ctxDead(); i++ {
			runTrial(i)
			dispatched = i + 1
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runTrial(i)
				}
			}()
		}
		for i := 0; i < trials && !failed.Load() && !ctxDead(); i++ {
			idx <- i
			dispatched = i + 1
		}
		close(idx)
		wg.Wait()
	}
	// Trials the dead context kept from dispatching are recorded as Unknown
	// with the context's reason — skipped, never silently dropped.
	if dispatched < trials {
		skipInc := core.ContextIncomplete(ctx)
		for i := dispatched; i < trials; i++ {
			tr := &results[i]
			if tr.err != nil || tr.verdict != core.VerdictUnknown || tr.incReason != "" {
				continue
			}
			if skipInc != nil {
				tr.incReason = string(skipInc.Reason)
				tr.incDetail = "trial not dispatched: " + skipInc.Detail
			} else {
				tr.incReason = string(core.ReasonCancelled)
				tr.incDetail = "trial not dispatched: batch stopped early"
			}
		}
	}

	out := newHistoryCheck(name, workers)
	for i := range results {
		tr := &results[i]
		if tr.err != nil {
			out.InternedStates = sess.InternedStates()
			return out, tr.err
		}
		out.add(i, tr)
	}
	out.InternedStates = sess.InternedStates()
	return out, nil
}

// trialResult is one trial's outcome as the HistoryCheck fold consumes it. It
// keeps only scalar fields: holding full core.Results would pin every
// generated history (Result.Rewritten) and witness until the batch finishes,
// where the sequential loop let each trial's history become garbage
// immediately.
type trialResult struct {
	seed       int64
	ops        int
	err        error
	verdict    core.Verdict
	incReason  string
	incDetail  string
	degraded   bool
	strategy   *core.Strategy
	lastErr    error
	tried      int
	nodes      int
	pruned     int
	memoHits   int
	steals     int
	shards     int
	innerPar   int
	planReuse  bool
	rewriteHit bool
}

// record copies the fields of a check's result that the fold consumes.
func (tr *trialResult) record(res *core.Result) {
	tr.verdict = res.Verdict
	if res.Incomplete != nil {
		tr.incReason = string(res.Incomplete.Reason)
		tr.incDetail = res.Incomplete.String()
	}
	tr.degraded = res.MemDegraded
	tr.strategy = res.Strategy
	tr.lastErr = res.LastErr
	tr.tried = res.Tried
	tr.nodes = res.Nodes
	tr.pruned = res.Pruned
	tr.memoHits = res.MemoHits
	tr.steals = res.Steals
	tr.shards = res.Shards
	tr.planReuse = res.PlanReused
	tr.rewriteHit = res.RewriteCached
}

// newHistoryCheck returns the empty aggregate of a batch over workers
// goroutines.
func newHistoryCheck(name string, workers int) HistoryCheck {
	return HistoryCheck{
		CRDT:            name,
		ByStrategy:      map[string]int{},
		UnknownByReason: map[string]int{},
		BatchWorkers:    workers,
	}
}

// add folds trial i's outcome into the aggregate: the one place a trial's
// verdict, strategy and engine statistics become HistoryCheck counts, for
// the batch and the monitor alike.
func (c *HistoryCheck) add(i int, tr *trialResult) {
	c.Histories++
	c.Operations += tr.ops
	c.Tried += tr.tried
	c.Nodes += tr.nodes
	c.Pruned += tr.pruned
	c.MemoHits += tr.memoHits
	c.Steals += tr.steals
	c.Shards = max(c.Shards, tr.shards)
	c.MaxInnerParallelism = max(c.MaxInnerParallelism, tr.innerPar)
	if tr.planReuse {
		c.PlanReuses++
	}
	if tr.rewriteHit {
		c.RewriteHits++
	}
	if tr.degraded {
		c.Degraded++
	}
	switch tr.verdict {
	case core.VerdictValid:
		c.Linearizable++
		if tr.strategy != nil {
			c.ByStrategy[tr.strategy.String()]++
		} else {
			c.ByStrategy["exhaustive"]++
		}
	case core.VerdictInvalid:
		c.Invalid++
		if c.FailureExample == "" {
			c.FailureExample = fmt.Sprintf("seed %d: %v", tr.seed, tr.lastErr)
		}
	default:
		c.Unknown++
		c.UnknownByReason[tr.incReason]++
		if c.UnknownExample == "" {
			c.UnknownExample = fmt.Sprintf("trial %d (seed %d): %s", i, tr.seed, tr.incDetail)
		}
	}
}
