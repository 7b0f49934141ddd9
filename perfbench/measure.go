package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ralin/internal/core"
	"ralin/internal/search"
)

// config is one run's measurement settings.
type config struct {
	seed int64
	// seconds is the minimum measured wall time.
	seconds time.Duration
	// minChecks is the minimum number of timed check calls, so the p99 of a
	// short run still has at least ten samples beyond it.
	minChecks int
	// maxTrials, when positive, stops the run after that many histories
	// whatever the time (the benchmark's own tests use it).
	maxTrials int
	// rssWindow is the number of histories after which peak_rss_mb is read:
	// a fixed amount of work, since a shared session's memory grows with the
	// histories it has checked. Runs measure at least this many histories.
	rssWindow int
	// warmup is the number of histories per stream each set-up checks before
	// timing starts; setups is the number of set-up repetitions.
	warmup int
	setups int
}

// defaultConfig is the benchmark's configuration for a run of the given
// length.
func defaultConfig(seed int64, seconds time.Duration) config {
	return config{seed: seed, seconds: seconds, minChecks: 1000, rssWindow: 1000, warmup: 4, setups: 9}
}

// trialRec is what a measured history leaves for the oracle: its trial index,
// one verdict per check call (one for CheckRA, one per prefix for the
// monitor), the calls whose Valid witness failed the audit and, in a traced
// run, the calls whose traced verdict differed.
type trialRec struct {
	trial     int
	verdicts  []core.Verdict
	auditBad  []int
	parityBad []int
}

// timings accumulates the untraced end-to-end measurements of a run.
type timings struct {
	histories int
	// pipeline is the time spent generating, transforming and checking the
	// histories (for the monitor also bucketing and growing the prefixes);
	// oracle work done between checks is excluded.
	pipeline time.Duration
	// checks holds one latency per check call; checkTotal is their sum.
	checks     []time.Duration
	checkTotal time.Duration
	wall       time.Duration
}

func (t *timings) addCheck(d time.Duration) {
	t.checks = append(t.checks, d)
	t.checkTotal += d
}

// done reports whether a run that started at start has measured enough.
func (c config) done(start time.Time, trials, checks int) bool {
	if c.maxTrials > 0 && trials >= c.maxTrials {
		return true
	}
	return time.Since(start) >= c.seconds && checks >= c.minChecks && trials >= c.rssWindow
}

// setUp creates a workload's shared session and warms it with cfg.warmup
// histories per stream. The warm-up histories are the same for every run
// seed (negative trials at the default seed), so set-up time varies with the
// host and the code, not with the seed.
func setUp(w *workload, cfg config) (*search.Session, error) {
	sess := search.NewSession()
	for i := 1; i <= cfg.warmup*len(w.streams); i++ {
		st, h, err := w.generate(defaultSeed, -i)
		if err != nil {
			return nil, err
		}
		if !w.monitor {
			core.CheckRA(h, st.plan.Spec, st.options(sess))
			continue
		}
		if err := replay(h, func(g *core.History, l *core.Label) {
			core.CheckRAExtend(g, st.plan.Spec, []*core.Label{l}, st.options(sess))
		}); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// replay grows a fresh history op by op along h's prefix plan, calling step
// after each operation with the grown history and the new label.
func replay(h *core.History, step func(g *core.History, l *core.Label)) error {
	p, err := newPrefixPlan(h)
	if err != nil {
		return err
	}
	g := core.NewHistory()
	for k := 0; k < h.Len(); k++ {
		l, err := p.grow(g, k)
		if err != nil {
			return err
		}
		step(g, l)
	}
	return nil
}

// auditWitness re-validates a Valid result's witness against its own
// rewritten history; it reports whether the witness holds (non-Valid results
// have nothing to audit).
func auditWitness(res *core.Result, spec core.Spec) bool {
	if res.Verdict != core.VerdictValid {
		return true
	}
	if res.Rewritten == nil {
		return false
	}
	return core.IsRALinearization(res.Rewritten, res.Linearization, spec) == nil
}

// runUntraced is the end-to-end run: set-up repeated cfg.setups times (each
// on a fresh session, the median is setup_s), then a closed loop of one
// history at a time on the last set-up's session until cfg says stop.
func runUntraced(w *workload, cfg config, start time.Duration) (*report, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	measureClockOverhead()
	var sess *search.Session
	setups := make([]float64, 0, cfg.setups)
	for r := 0; r < cfg.setups; r++ {
		t0 := cpuNow()
		if r == 0 {
			t0 = start
		}
		s, err := setUp(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuNow() - t0).Seconds())
		sess = s
	}
	runtime.GC()

	var tm timings
	var recs []trialRec
	var peak float64
	var probe hostProbe
	loopStart := time.Now() // the run length is wall time
	for i := 0; !cfg.done(loopStart, i, len(tm.checks)); i++ {
		rec := trialRec{trial: i}
		t0 := cpuNow()
		st, h, err := w.generate(cfg.seed, i)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		if !w.monitor {
			t1 := cpuNow()
			res := core.CheckRA(h, st.plan.Spec, st.options(sess))
			t2 := cpuNow()
			tm.addCheck(latency(t1, t2))
			tm.pipeline += t2 - t0
			rec.verdicts = []core.Verdict{res.Verdict}
			if !auditWitness(&res, st.plan.Spec) {
				rec.auditBad = append(rec.auditBad, 0)
			}
		} else {
			p, err := newPrefixPlan(h)
			if err != nil {
				return nil, fmt.Errorf("trial %d: %w", i, err)
			}
			tm.pipeline += cpuNow() - t0
			g := core.NewHistory()
			newOps := make([]*core.Label, 1)
			opts := st.options(sess)
			for k := 0; k < h.Len(); k++ {
				t1 := cpuNow()
				l, err := p.grow(g, k)
				if err != nil {
					return nil, fmt.Errorf("trial %d: %w", i, err)
				}
				newOps[0] = l
				t2 := cpuNow()
				res := core.CheckRAExtend(g, st.plan.Spec, newOps, opts)
				t3 := cpuNow()
				tm.addCheck(latency(t2, t3))
				tm.pipeline += t3 - t1
				rec.verdicts = append(rec.verdicts, res.Verdict)
				if !auditWitness(&res, st.plan.Spec) {
					rec.auditBad = append(rec.auditBad, k)
				}
			}
		}
		tm.histories++
		recs = append(recs, rec)
		if tm.histories == cfg.rssWindow {
			peak = peakRSSMB()
		}
		probe.maybe()
	}
	tm.wall = time.Since(loopStart)
	if tm.histories < cfg.rssWindow {
		peak = peakRSSMB()
	}

	rep := &report{workload: w.name, seed: cfg.seed, timings: tm, recs: recs}
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
	lat := make([]float64, len(tm.checks))
	for i, d := range tm.checks {
		lat[i] = float64(d.Nanoseconds()) / 1e3
	}
	slices.Sort(lat)
	rep.p99Beyond = len(lat) - nearestRank(len(lat), 0.99)
	f := probe.factor()
	rep.hostFactor = f
	rep.raw = map[string]float64{
		"setup_s":         median(setups),
		"histories_per_s": float64(tm.histories) / tm.pipeline.Seconds(),
		"checks_per_s":    float64(len(tm.checks)) / tm.checkTotal.Seconds(),
		"check_p50_us":    quantile(lat, 0.50),
		"check_p99_us":    quantile(lat, 0.99),
	}
	rep.metrics = map[string]float64{
		"setup_s":         rep.raw["setup_s"] / f,
		"histories_per_s": rep.raw["histories_per_s"] * f,
		"checks_per_s":    rep.raw["checks_per_s"] * f,
		"check_p50_us":    rep.raw["check_p50_us"] / f,
		"check_p99_us":    rep.raw["check_p99_us"] / f,
		"pass_ratio":      1 - float64(rep.tally.failed)/float64(max(rep.tally.attempted, 1)),
		"peak_rss_mb":     peak,
	}
	return rep, nil
}

// nearestRank is the 1-based nearest rank of quantile q among n sorted
// samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 for none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), q)-1]
}

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
