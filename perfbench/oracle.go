package main

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ralin/internal/core"
	"ralin/internal/search"
)

// defaultSeed is the run seed whose first trials have committed verdicts in
// expected/.
const defaultSeed = 1

// expectedFS holds the committed verdicts, one file per workload, written by
// --record at the default seed: a line per trial with the trial index, the
// history digest and one verdict letter per check call.
//
//go:embed expected/*.txt
var expectedFS embed.FS

// expectation is one committed trial: the digest of the history it checked
// and its verdict letters.
type expectation struct {
	digest   string
	verdicts string
}

// tally is the oracle's account of a run's checks. A check fails when its
// verdict is Unknown, differs from the reference, or its Valid witness fails
// the audit; only the last two (and changed inputs) make a run incorrect.
type tally struct {
	attempted int
	failed    int
	unknown   int
	wrong     int
	auditBad  int
	// inputChanged counts histories whose digest differs from the committed
	// one: the workload no longer generates the inputs it was recorded on.
	inputChanged int
	parityBad    int
	// canaryBad counts committed default-seed trials whose verdicts differ
	// when re-checked after a run at another seed.
	canaryBad  int
	committed  int
	recomputed int
	notes      []string
}

func (t *tally) note(format string, args ...any) {
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every checked verdict was right.
func (t *tally) correct() bool {
	return t.wrong == 0 && t.auditBad == 0 && t.inputChanged == 0 && t.parityBad == 0 && t.canaryBad == 0
}

// oracle supplies reference verdicts: the committed ones for the default
// seed's recorded trials, and otherwise a sessionless from-scratch
// core.CheckRA of the same history (or monitor prefix).
type oracle struct {
	w        *workload
	seed     int64
	expected map[int]expectation
}

func newOracle(w *workload, seed int64) (*oracle, error) {
	o := &oracle{w: w, seed: seed}
	f, err := expectedFS.Open("expected/" + w.name + ".txt")
	if err != nil {
		return nil, fmt.Errorf("committed verdicts: %w", err)
	}
	defer f.Close()
	o.expected, err = parseExpected(f)
	if err != nil {
		return nil, fmt.Errorf("committed verdicts of %s: %w", w.name, err)
	}
	return o, nil
}

func parseExpected(r io.Reader) (map[int]expectation, error) {
	out := map[int]expectation{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want trial, digest and verdicts", line)
		}
		trial, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out[trial] = expectation{digest: fields[1], verdicts: fields[2]}
	}
	return out, sc.Err()
}

// reference computes the from-scratch verdicts of trial's check calls whose
// index need selects: a sessionless core.CheckRA of the history, or of each
// selected monitor prefix.
func (o *oracle) reference(trial int, need func(k int) bool) (map[int]core.Verdict, string, error) {
	st, h, err := o.w.generate(o.seed, trial)
	if err != nil {
		return nil, "", err
	}
	out := map[int]core.Verdict{}
	opts := st.options(nil)
	if !o.w.monitor {
		if need(0) {
			out[0] = core.CheckRA(h, st.plan.Spec, opts).Verdict
		}
		return out, digest(h), nil
	}
	p, err := newPrefixPlan(h)
	if err != nil {
		return nil, "", err
	}
	for k := 0; k < h.Len(); k++ {
		if !need(k) {
			continue
		}
		g := h
		if k < h.Len()-1 {
			if g, err = p.prefix(k); err != nil {
				return nil, "", err
			}
		}
		out[k] = core.CheckRA(g, st.plan.Spec, opts).Verdict
	}
	return out, digest(h), nil
}

// verify checks every record's verdicts and adds the outcome to t. Valid
// verdicts were audited when they were made. Where committed verdicts exist
// every verdict is compared with them. Otherwise each non-Valid verdict of
// CheckRA, and each monitor prefix at which the verdict stops being Valid, is
// compared with a from-scratch reference. A monitor history's final verdict
// is always compared with a from-scratch check of the whole history.
func (o *oracle) verify(recs []trialRec, t *tally) error {
	for _, rec := range recs {
		n := len(rec.verdicts)
		bad := make([]bool, n)
		for _, k := range rec.auditBad {
			bad[k] = true
			t.auditBad++
			t.note("trial %d check %d: Valid witness failed the audit", rec.trial, k)
		}
		for _, k := range rec.parityBad {
			bad[k] = true
			t.parityBad++
			t.note("trial %d check %d: traced verdict differs from untraced", rec.trial, k)
		}
		exp, committed := o.expected[rec.trial]
		committed = committed && o.seed == defaultSeed
		need := func(k int) bool {
			if o.w.monitor && k == n-1 {
				return true
			}
			if committed || rec.verdicts[k] == core.VerdictValid {
				return false
			}
			// A monitor prefix is referenced where its verdict stops being
			// Valid; the prefixes after it up to the final one are only
			// compared with committed verdicts.
			return !o.w.monitor || k == 0 || rec.verdicts[k-1] == core.VerdictValid
		}
		needed := committed
		for k := 0; k < n && !needed; k++ {
			needed = need(k)
		}
		var ref map[int]core.Verdict
		var dig string
		if needed {
			var err error
			if ref, dig, err = o.reference(rec.trial, need); err != nil {
				return fmt.Errorf("oracle, trial %d: %w", rec.trial, err)
			}
		}
		got := verdictLetters(rec.verdicts)
		if committed {
			t.committed++
			if exp.digest != dig {
				t.inputChanged++
				t.note("trial %d: history digest %s, committed %s", rec.trial, dig, exp.digest)
			}
			if exp.verdicts != got {
				for k := range bad {
					if k >= len(exp.verdicts) || exp.verdicts[k] != got[k] {
						bad[k] = true
						t.wrong++
					}
				}
				t.note("trial %d: verdicts %s, committed %s", rec.trial, got, exp.verdicts)
			}
		}
		t.recomputed += len(ref)
		for k, v := range ref {
			if v != rec.verdicts[k] {
				bad[k] = true
				t.wrong++
				t.note("trial %d check %d: verdict %v, from-scratch reference %v", rec.trial, k, rec.verdicts[k], v)
			}
		}
		for k, v := range rec.verdicts {
			if v == core.VerdictUnknown {
				bad[k] = true
				t.unknown++
			}
			if bad[k] {
				t.failed++
			}
		}
		t.attempted += n
	}
	return nil
}

// canaryTrials is the number of committed default-seed trials re-checked
// after a run at another seed.
const canaryTrials = 100

// canary re-checks the first committed trials of the default seed the way the
// measured loop checks them, on a fresh shared session, and counts those whose
// input or verdicts differ from the committed ones. At other seeds the
// from-scratch references run the same engine as the checks they judge, so
// only committed verdicts catch a fault common to both; the canary applies
// them at every seed. A run at the default seed compares its own trials.
func (o *oracle) canary(t *tally) error {
	if o.seed == defaultSeed {
		return nil
	}
	sess := search.NewSession()
	for i := 0; i < canaryTrials; i++ {
		exp, ok := o.expected[i]
		if !ok {
			continue
		}
		st, h, err := o.w.generate(defaultSeed, i)
		if err != nil {
			return fmt.Errorf("canary trial %d: %w", i, err)
		}
		var vs []core.Verdict
		if o.w.monitor {
			err = replay(h, func(g *core.History, l *core.Label) {
				vs = append(vs, core.CheckRAExtend(g, st.plan.Spec, []*core.Label{l}, st.options(sess)).Verdict)
			})
			if err != nil {
				return fmt.Errorf("canary trial %d: %w", i, err)
			}
		} else {
			vs = append(vs, core.CheckRA(h, st.plan.Spec, st.options(sess)).Verdict)
		}
		if got, dig := verdictLetters(vs), digest(h); got != exp.verdicts || dig != exp.digest {
			t.canaryBad++
			t.note("canary trial %d: digest %s verdicts %s, committed %s %s", i, dig, got, exp.digest, exp.verdicts)
		}
	}
	return nil
}

// record writes the reference verdicts of the first trials of w at seed in
// the expected/ format.
func record(w *workload, seed int64, trials int, out io.Writer) error {
	o := &oracle{w: w, seed: seed}
	fmt.Fprintf(out, "# perfbench committed verdicts: workload %s, seed %d, trials 0-%d\n", w.name, seed, trials-1)
	fmt.Fprintf(out, "# trial digest verdicts (V valid, I invalid, U unknown; one per check call)\n")
	for i := 0; i < trials; i++ {
		ref, dig, err := o.reference(i, func(int) bool { return true })
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		vs := make([]core.Verdict, len(ref))
		for k, v := range ref {
			vs[k] = v
		}
		fmt.Fprintf(out, "%d %s %s\n", i, dig, verdictLetters(vs))
	}
	return nil
}
