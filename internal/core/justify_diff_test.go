package core_test

import (
	"strconv"
	"strings"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/crdt/rga"
	"ralin/internal/harness"
	"ralin/internal/runtime"
)

// witnessOutcome classifies an IsRALinearization result by the condition it
// names, so the differential tests can assert that every branch was reached.
func witnessOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	msg := err.Error()
	if strings.Contains(msg, "is a query-update") {
		return "query-update"
	}
	for _, c := range []string{"condition (iii)", "condition (ii)", "condition (i)"} {
		if strings.HasPrefix(msg, c) {
			return c
		}
	}
	return "unexpected"
}

// matchReference checks seq with IsRALinearization and with the replaying
// reference and fails unless both accept, or both reject with byte-identical
// errors. It returns the outcome class.
func matchReference(t *testing.T, h *core.History, seq []*core.Label, sp core.Spec, what string) string {
	t.Helper()
	got := core.IsRALinearization(h, seq, sp)
	want := core.ReferenceIsRALinearization(h, seq, sp)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: IsRALinearization = %v, reference = %v\nsequence %s\nhistory:\n%s",
			what, got, want, core.FormatLabels(seq), h)
	}
	return witnessOutcome(got)
}

// foreignLabel is a label whose identifier no generated history uses.
var foreignLabel = &core.Label{ID: 1 << 40, Method: "foreign", Kind: core.KindUpdate}

// wrongRet returns a return value that differs from ret but keeps its type
// where the type is one the specifications read, so the query fails on its
// value rather than on a type assertion.
func wrongRet(ret core.Value) core.Value {
	switch x := ret.(type) {
	case []string:
		return append(append([]string(nil), x...), "zz")
	case []core.Pair:
		return append(append([]core.Pair(nil), x...), core.Pair{Elem: "zz", ID: 1 << 40})
	case int64:
		return x + 1000
	case int:
		return x + 1000
	case string:
		return x + "zz"
	default:
		return "zz"
	}
}

// mutations returns perturbed copies of seq: every adjacent swap, a dropped,
// a duplicated and a foreign label at each of the first, middle and last
// positions, and every query with its return value altered (a clone with the
// same identifier, so condition (i) still holds and the query fails after
// its walk through the trie).
func mutations(seq []*core.Label) map[string][]*core.Label {
	out := map[string][]*core.Label{}
	edit := func(name string, f func(s []*core.Label) []*core.Label) {
		out[name] = f(append([]*core.Label(nil), seq...))
	}
	n := len(seq)
	for i := 0; i+1 < n; i++ {
		edit("swap@"+strconv.Itoa(i), func(s []*core.Label) []*core.Label {
			s[i], s[i+1] = s[i+1], s[i]
			return s
		})
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if i < 0 || i >= n {
			continue
		}
		edit("drop@"+strconv.Itoa(i), func(s []*core.Label) []*core.Label { return append(s[:i], s[i+1:]...) })
		edit("dup@"+strconv.Itoa(i), func(s []*core.Label) []*core.Label {
			s[i] = s[(i+1)%n]
			return s
		})
		edit("foreign@"+strconv.Itoa(i), func(s []*core.Label) []*core.Label {
			s[i] = foreignLabel
			return s
		})
	}
	for i, l := range seq {
		if !l.IsQuery() {
			continue
		}
		edit("ret@"+strconv.Itoa(i), func(s []*core.Label) []*core.Label {
			c := l.Clone()
			c.Ret = wrongRet(l.Ret)
			s[i] = c
			return s
		})
	}
	return out
}

// TestIsRALinearizationMatchesReference is the differential test of the
// shared-prefix witness check: over every registry descriptor's random
// histories (Wooki's nondeterministic addBetween included) it compares
// IsRALinearization with the per-query replay reference on both strategy
// sequences, on the first linear extensions of the visibility relation, and
// on mutations of the strategy sequences, and on the unrewritten history
// where it has query-updates. Every outcome class — accepted, and rejected
// under each of conditions (i), (ii) and (iii) — must occur.
func TestIsRALinearizationMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for _, d := range registry.All() {
		for seed := int64(1); seed <= 12; seed++ {
			cfg := harness.DefaultWorkload()
			cfg.Seed = seed
			cfg.Ops = 7 + int(seed%4)
			cfg.FinalDelivery = seed%3 == 0
			h, err := harness.RunRandom(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := d.Name + " seed " + strconv.Itoa(int(seed))
			seen[matchReference(t, h, h.Labels(), d.Spec, what+" unrewritten")]++
			rew, err := core.RewriteHistory(h, d.Rewriting)
			if err != nil {
				t.Fatal(err)
			}
			rh := rew.History
			for name, seq := range map[string][]*core.Label{
				"execution-order": core.ExecutionOrderLinearization(rh),
				"timestamp-order": core.TimestampOrderLinearization(rh),
			} {
				seen[matchReference(t, rh, seq, d.Spec, what+" "+name)]++
				for mut, m := range mutations(seq) {
					seen[matchReference(t, rh, m, d.Spec, what+" "+name+" "+mut)]++
				}
			}
			core.LinearExtensions(rh, 16, func(seq []*core.Label) bool {
				seen[matchReference(t, rh, seq, d.Spec, what+" linear extension")]++
				return true
			})
		}
	}
	t.Logf("outcomes: %v", seen)
	if seen["unexpected"] > 0 {
		t.Errorf("%d errors name no condition of Definition 3.5", seen["unexpected"])
	}
	for _, c := range []string{"ok", "condition (i)", "condition (ii)", "condition (iii)", "query-update"} {
		if seen[c] == 0 {
			t.Errorf("no sequence reached outcome %q; the differential test lost coverage", c)
		}
	}
}

// fig8History is the RGA history of Figure 8: ℓ2 = addAfter(◦, b) is
// generated first with the larger timestamp, ℓ1 = addAfter(◦, a) second with
// the smaller one, a read ⇒ b·a sees both, and addAfter(b, c) follows.
func fig8History(t *testing.T) *core.History {
	t.Helper()
	d := rga.Descriptor()
	scripted := clock.NewScripted(
		clock.Timestamp{Time: 2, Replica: 1},
		clock.Timestamp{Time: 1, Replica: 0},
		clock.Timestamp{Time: 3, Replica: 1},
	)
	sys := d.NewOpSystem(runtime.Config{Replicas: 2, Clock: scripted})
	sys.MustInvoke(1, "addAfter", rga.Root, "b")
	sys.MustInvoke(0, "addAfter", rga.Root, "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "read")
	sys.MustInvoke(1, "addAfter", "b", "c")
	return sys.History()
}

// TestTimestampOrderMatchesReference pins TimestampOrderLinearization, which
// computes each label's history timestamp once, to the comparator that
// recomputed both timestamps per comparison: the same labels in the same
// order on every registry descriptor's random histories (raw and rewritten)
// and on the Figure 8 history.
func TestTimestampOrderMatchesReference(t *testing.T) {
	check := func(h *core.History, what string) {
		t.Helper()
		got, want := core.TimestampOrderLinearization(h), core.ReferenceTimestampOrder(h)
		if len(got) != len(want) {
			t.Fatalf("%s: %d labels, reference %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: order differs at %d\ngot       %s\nreference %s",
					what, i, core.FormatLabels(got), core.FormatLabels(want))
			}
		}
	}
	fig8 := fig8History(t)
	check(fig8, "figure 8")
	rew, err := core.RewriteHistory(fig8, rga.Descriptor().Rewriting)
	if err != nil {
		t.Fatal(err)
	}
	check(rew.History, "figure 8 rewritten")
	for _, d := range registry.All() {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := harness.DefaultWorkload()
			cfg.Seed = seed
			cfg.Ops = 6 + int(seed%8)
			h, err := harness.RunRandom(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := d.Name + " seed " + strconv.Itoa(int(seed))
			check(h, what)
			rew, err := core.RewriteHistory(h, d.Rewriting)
			if err != nil {
				t.Fatal(err)
			}
			check(rew.History, what+" rewritten")
		}
	}
}
