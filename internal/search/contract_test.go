package search

import (
	"context"
	"errors"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// requireContract asserts the core.Result contract every producer keeps:
// Valid exactly when a witness is attached, Unknown exactly when an
// Incomplete reason is, and Invalid only with an explanation. An RA witness
// must also re-validate against the rewritten history; a strong-mode witness
// (ra false) is only checked against the visibility relation, since strong
// linearizability judges queries by a different condition.
func requireContract(t *testing.T, name string, res core.Result, sp core.Spec, ra bool, want core.Verdict) {
	t.Helper()
	if res.Verdict != want {
		t.Fatalf("%s: verdict %v, want %v (%+v)", name, res.Verdict, want, res)
	}
	if (res.Verdict == core.VerdictValid) != (res.Linearization != nil) {
		t.Fatalf("%s: verdict %v with witness %v", name, res.Verdict, res.Linearization)
	}
	if (res.Verdict == core.VerdictUnknown) != (res.Incomplete != nil) {
		t.Fatalf("%s: verdict %v with Incomplete %v", name, res.Verdict, res.Incomplete)
	}
	if res.Verdict == core.VerdictInvalid && res.LastErr == nil {
		t.Fatalf("%s: Invalid verdict without LastErr", name)
	}
	if res.Verdict != core.VerdictValid {
		return
	}
	if ra {
		if err := core.IsRALinearization(res.Rewritten, res.Linearization, sp); err != nil {
			t.Fatalf("%s: witness does not re-validate: %v", name, err)
		}
	} else if err := res.Rewritten.ConsistentWithVis(res.Linearization); err != nil {
		t.Fatalf("%s: strong witness violates visibility: %v", name, err)
	}
}

// requireReason asserts an Unknown result's truncation reason.
func requireReason(t *testing.T, name string, res core.Result, want core.IncompleteReason) {
	t.Helper()
	if res.Incomplete == nil || res.Incomplete.Reason != want {
		t.Fatalf("%s: Incomplete %v, want reason %s", name, res.Incomplete, want)
	}
}

// TestResultContractCheckRA covers every exit of core.CheckRA: the
// constructive strategies, both engines' witnesses and refutations, the
// rewriting error, the strategies-only and budget truncations and a dead
// context. (A cyclic history cannot be built through the public History API;
// the cyclic exit is covered by the core package's own tests.)
func TestResultContractCheckRA(t *testing.T) {
	sp := spec.Counter{}
	valid := concurrentIncsHistory(3, 3)
	invalid := concurrentIncsHistory(3, 99)
	search := func(e core.Engine) core.CheckOptions {
		return core.CheckOptions{Exhaustive: true, Engine: e, Parallelism: 1}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	res := core.CheckRA(valid, sp, core.DefaultCheckOptions())
	requireContract(t, "strategy witness", res, sp, true, core.VerdictValid)
	if res.Strategy == nil {
		t.Fatalf("strategy witness: no strategy recorded: %+v", res)
	}
	for _, e := range []core.Engine{core.EnginePruned, core.EngineLegacy} {
		requireContract(t, e.String()+" witness", core.CheckRA(valid, sp, search(e)), sp, true, core.VerdictValid)
		res := core.CheckRA(invalid, sp, search(e))
		requireContract(t, e.String()+" refutation", res, sp, true, core.VerdictInvalid)
		if !errors.Is(res.LastErr, core.ErrNotRALinearizable) {
			t.Fatalf("%s refutation must wrap ErrNotRALinearizable: %v", e, res.LastErr)
		}
	}

	qu := core.NewHistory()
	qu.MustAdd(&core.Label{ID: 1, Method: "remove", Kind: core.KindQueryUpdate, GenSeq: 1})
	requireContract(t, "rewriting error", core.CheckRA(qu, sp, search(core.EnginePruned)), sp, true, core.VerdictInvalid)

	res = core.CheckRA(invalid, sp, core.CheckOptions{Strategies: []core.Strategy{core.StrategyExecutionOrder}})
	requireContract(t, "strategies only", res, sp, true, core.VerdictUnknown)
	requireReason(t, "strategies only", res, core.ReasonNoSearch)

	budget := search(core.EnginePruned)
	budget.MaxNodes = 1
	res = core.CheckRA(concurrentIncsHistory(6, 99), sp, budget)
	requireContract(t, "MaxNodes truncation", res, sp, true, core.VerdictUnknown)
	requireReason(t, "MaxNodes truncation", res, core.ReasonNodeBudget)

	legacyBudget := search(core.EngineLegacy)
	legacyBudget.MaxExtensions = 2
	res = core.CheckRA(concurrentIncsHistory(6, 99), sp, legacyBudget)
	requireContract(t, "MaxExtensions truncation", res, sp, true, core.VerdictUnknown)
	requireReason(t, "MaxExtensions truncation", res, core.ReasonNodeBudget)

	dead := core.DefaultCheckOptions()
	dead.Context = cancelled
	res = core.CheckRA(valid, sp, dead)
	requireContract(t, "pre-cancelled", res, sp, true, core.VerdictUnknown)
	requireReason(t, "pre-cancelled", res, core.ReasonCancelled)
}

// TestResultContractStrong covers core.CheckStrongLinearizable under both
// engines and both polarities.
func TestResultContractStrong(t *testing.T) {
	sp := spec.Counter{}
	for _, e := range []core.Engine{core.EnginePruned, core.EngineLegacy} {
		opts := core.CheckOptions{Engine: e, Parallelism: 1}
		requireContract(t, e.String()+" strong witness",
			core.CheckStrongLinearizable(concurrentIncsHistory(2, 2), sp, opts), sp, false, core.VerdictValid)
		requireContract(t, e.String()+" strong refutation",
			core.CheckStrongLinearizable(concurrentIncsHistory(2, 1), sp, opts), sp, false, core.VerdictInvalid)
	}
}

// TestResultContractExtend covers every rung of core.CheckRAExtend: the
// first-contact rebuild, the certificate replay, the extended search (both
// polarities and a budget truncation), a dead context, and a warm-session
// re-check of the finished history.
func TestResultContractExtend(t *testing.T) {
	sp := spec.Counter{}
	sess := NewSession()
	opts := extOpts(sess)
	h := core.NewHistory()
	extend := func(name string, opts core.CheckOptions, want core.Verdict, ops ...*core.Label) core.Result {
		t.Helper()
		res := core.CheckRAExtend(h, sp, ops, opts)
		requireContract(t, name, res, sp, true, want)
		return res
	}

	l1 := h.MustAdd(mkUpdate(1, "inc"))
	if res := extend("rebuild", opts, core.VerdictValid, l1); res.Extended {
		t.Fatalf("first contact must rebuild: %+v", res)
	}
	l2 := h.MustAdd(mkUpdate(2, "inc"))
	if res := extend("certificate replay", opts, core.VerdictValid, l2); !res.WitnessReplayed {
		t.Fatalf("growth under the edge discipline must replay the certificate: %+v", res)
	}

	// A read that must be placed after an update appended behind it fails the
	// rank-order replay, so the extended search finds the witness.
	r3 := h.MustAdd(mkRead(3, int64(3)))
	u4 := h.MustAdd(mkUpdate(4, "inc"))
	for _, from := range []uint64{1, 2, 4} {
		h.MustAddVis(from, 3)
	}
	if res := extend("extend search witness", opts, core.VerdictValid, r3, u4); !res.Extended || res.WitnessReplayed {
		t.Fatalf("the witness must come from the extended search: %+v", res)
	}

	r5 := h.MustAdd(mkRead(5, int64(99)))
	h.MustAddVis(3, 5)
	res := extend("extend search refutation", opts, core.VerdictInvalid, r5)
	if !res.Extended || !errors.Is(res.LastErr, core.ErrNotRALinearizable) {
		t.Fatalf("the extended refutation must wrap ErrNotRALinearizable: %+v", res)
	}

	budget := opts
	budget.MaxNodes = 1
	u6 := h.MustAdd(mkUpdate(6, "inc"))
	res = extend("extend search truncation", budget, core.VerdictUnknown, u6)
	requireReason(t, "extend search truncation", res, core.ReasonNodeBudget)

	dead := opts
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead.Context = ctx
	u7 := h.MustAdd(mkUpdate(7, "inc"))
	res = extend("pre-cancelled", dead, core.VerdictUnknown, u7)
	requireReason(t, "pre-cancelled", res, core.ReasonCancelled)

	for i := 0; i < 2; i++ {
		requireContract(t, "warm re-check", core.CheckRAWith(h, sp, core.CheckOptions{Exhaustive: true, Parallelism: 1}, sess),
			sp, true, core.VerdictInvalid)
	}
}
