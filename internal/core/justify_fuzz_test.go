package core_test

import (
	"sync"
	"testing"

	"ralin/internal/core"
	"ralin/internal/scenario"
)

// fuzzSubject is one committed corpus history, rewritten as its check plan
// rewrites it, with its specification and both strategy sequences.
type fuzzSubject struct {
	h      *core.History
	spec   core.Spec
	eo, to []*core.Label
}

var (
	fuzzOnce     sync.Once
	fuzzSubjects []fuzzSubject
	fuzzLoadErr  error
)

// loadFuzzSubjects reads testdata/corpus/ once per test binary.
func loadFuzzSubjects(tb testing.TB) []fuzzSubject {
	tb.Helper()
	fuzzOnce.Do(func() {
		entries, _, err := scenario.LoadCorpus("../../testdata/corpus")
		if err != nil {
			fuzzLoadErr = err
			return
		}
		for _, e := range entries {
			h, err := e.History()
			if err != nil {
				fuzzLoadErr = err
				return
			}
			plan, err := e.Plan()
			if err != nil {
				fuzzLoadErr = err
				return
			}
			rew, err := core.RewriteHistory(h, plan.Options.Rewriting)
			if err != nil {
				fuzzLoadErr = err
				return
			}
			rh := rew.History
			fuzzSubjects = append(fuzzSubjects, fuzzSubject{
				h:    rh,
				spec: plan.Spec,
				eo:   core.ExecutionOrderLinearization(rh),
				to:   core.TimestampOrderLinearization(rh),
			})
		}
	})
	if fuzzLoadErr != nil {
		tb.Fatal(fuzzLoadErr)
	}
	if len(fuzzSubjects) == 0 {
		tb.Fatal("no corpus entries under testdata/corpus; regenerate with `make scenarios`")
	}
	return fuzzSubjects
}

// perturb applies the edits encoded in ops to a copy of seq, one byte pair
// (edit, position) at a time, at most eight edits: an adjacent swap, a swap
// with the label half the sequence away, a dropped label, a duplicated label,
// a foreign label, and a query (the first at or after the position) with its
// return value altered.
func perturb(seq []*core.Label, ops []byte) []*core.Label {
	s := append([]*core.Label(nil), seq...)
	for i := 0; i+1 < len(ops) && i < 16 && len(s) > 1; i += 2 {
		n := len(s)
		p := int(ops[i+1]) % n
		switch ops[i] % 6 {
		case 0:
			q := (p + 1) % n
			s[p], s[q] = s[q], s[p]
		case 1:
			q := (p + n/2) % n
			s[p], s[q] = s[q], s[p]
		case 2:
			s = append(s[:p], s[p+1:]...)
		case 3:
			s[p] = s[(p+1)%n]
		case 4:
			s[p] = foreignLabel
		case 5:
			for k := 0; k < n; k++ {
				if l := s[(p+k)%n]; l.IsQuery() {
					c := l.Clone()
					c.Ret = wrongRet(l.Ret)
					s[(p+k)%n] = c
					break
				}
			}
		}
	}
	return s
}

// FuzzIsRALinearization drives the shared-prefix witness check against the
// per-query replay reference kept in the test binary: the input picks a
// committed corpus history (testdata/corpus/), one of its two strategy
// sequences, and a perturbation of that sequence (see perturb). Both checks
// must accept, or reject with byte-identical errors. CI runs it as a bounded
// smoke (`go test -fuzz=FuzzIsRALinearization -fuzztime=30s`) on top of the
// seed corpus, which covers every corpus entry unperturbed under both
// strategies, with one swap and with one altered query.
func FuzzIsRALinearization(f *testing.F) {
	subjects := loadFuzzSubjects(f)
	for i := range subjects {
		mid := byte(len(subjects[i].eo) / 2)
		f.Add(uint8(i), false, []byte{})
		f.Add(uint8(i), true, []byte{})
		f.Add(uint8(i), false, []byte{0, mid})
		f.Add(uint8(i), true, []byte{5, mid})
	}
	f.Fuzz(func(t *testing.T, pick uint8, timestampOrder bool, ops []byte) {
		sub := subjects[int(pick)%len(subjects)]
		seq := sub.eo
		if timestampOrder {
			seq = sub.to
		}
		matchReference(t, sub.h, perturb(seq, ops), sub.spec, "fuzz")
	})
}
