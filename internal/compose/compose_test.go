package compose

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt/counter"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/pncounter"
	"ralin/internal/crdt/rga"
	"ralin/internal/crdt/twopset"
)

func twoORSets() []Object {
	return []Object{
		{Name: "o1", Descriptor: orset.Descriptor()},
		{Name: "o2", Descriptor: orset.Descriptor()},
	}
}

func TestComposeBasicsAndErrors(t *testing.T) {
	if _, err := NewSystem(Unrestricted, 2); err == nil {
		t.Fatal("composition without objects must fail")
	}
	if _, err := NewSystem(Unrestricted, 2, Object{Descriptor: orset.Descriptor()}); err == nil {
		t.Fatal("object without a name must fail")
	}
	if _, err := NewSystem(Unrestricted, 2, twoORSets()[0], twoORSets()[0]); err == nil {
		t.Fatal("duplicate object names must fail")
	}
	sys := MustNewSystem(Unrestricted, 2, twoORSets()...)
	if len(sys.Objects()) != 2 || len(sys.Replicas()) != 2 {
		t.Fatal("composition shape wrong")
	}
	if _, err := sys.Invoke("o3", 0, "add", "x"); err == nil {
		t.Fatal("unknown object must fail")
	}
	if _, err := sys.Descriptor("o3"); err == nil {
		t.Fatal("unknown object must fail")
	}
	if err := sys.Deliver("o3", 0, 1); err == nil {
		t.Fatal("unknown object must fail")
	}
	if err := sys.Broadcast("o1", 0); err == nil {
		t.Fatal("broadcast on an operation-based object must fail")
	}
	if Unrestricted.String() != "⊗" || SharedTimestamps.String() != "⊗ts" || Mode(9).String() != "?" {
		t.Fatal("mode rendering wrong")
	}
}

func TestComposeCrossObjectVisibility(t *testing.T) {
	sys := MustNewSystem(Unrestricted, 2, twoORSets()...)
	a := sys.MustInvoke("o1", 0, "add", "x")
	b := sys.MustInvoke("o2", 0, "add", "y") // same replica: sees a across objects
	c := sys.MustInvoke("o2", 1, "add", "z") // other replica: sees nothing
	h := sys.History()
	if !h.Vis(a.ID, b.ID) {
		t.Fatal("cross-object visibility on the same replica missing")
	}
	if h.Vis(a.ID, c.ID) || h.Vis(b.ID, c.ID) {
		t.Fatal("unexpected visibility to the other replica")
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	d := sys.MustInvoke("o1", 1, "read")
	h = sys.History()
	if !h.Vis(a.ID, d.ID) || !h.Vis(c.ID, d.ID) {
		t.Fatal("visibility after delivery missing")
	}
	if !sys.Converged() {
		t.Fatal("composition must converge after delivery")
	}
}

func TestComposeMixedOpAndStateBased(t *testing.T) {
	sys := MustNewSystem(SharedTimestamps, 2,
		Object{Name: "cart", Descriptor: orset.Descriptor()},
		Object{Name: "hits", Descriptor: pncounter.Descriptor()},
	)
	sys.MustInvoke("cart", 0, "add", "book")
	sys.MustInvoke("hits", 0, "inc")
	sys.MustInvoke("hits", 1, "inc")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.MustInvoke("hits", 1, "read").Ret; got != int64(2) {
		t.Fatalf("composed counter read %v, want 2", got)
	}
	if got := sys.MustInvoke("cart", 1, "read").Ret; !core.ValueEqual(got, []string{"book"}) {
		t.Fatalf("composed set read %v, want [book]", got)
	}
	res := core.CheckRA(sys.History(), SpecOf(sys), CheckOptions(sys))
	if res.Verdict != core.VerdictValid {
		t.Fatalf("mixed composition must be RA-linearizable: %v", res.LastErr)
	}
	if err := sys.Deliver("hits", 0, 1); err == nil {
		t.Fatal("Deliver on a state-based object must fail")
	}
}

func TestComposedSpecInterleavings(t *testing.T) {
	objs := []Object{
		{Name: "c1", Descriptor: counter.Descriptor()},
		{Name: "c2", Descriptor: counter.Descriptor()},
	}
	spec := NewSpec(objs...)
	if spec.Name() != "Spec(Counter) ⊗ Spec(Counter)" {
		t.Fatalf("composed spec name wrong: %q", spec.Name())
	}
	seq := []*core.Label{
		{ID: 1, Object: "c1", Method: "inc", Kind: core.KindUpdate},
		{ID: 2, Object: "c2", Method: "inc", Kind: core.KindUpdate},
		{ID: 3, Object: "c1", Method: "read", Ret: int64(1), Kind: core.KindQuery},
		{ID: 4, Object: "c2", Method: "read", Ret: int64(1), Kind: core.KindQuery},
	}
	if !core.Admits(spec, seq) {
		t.Fatal("interleaving must be admitted")
	}
	bad := []*core.Label{
		{ID: 1, Object: "c1", Method: "inc", Kind: core.KindUpdate},
		{ID: 2, Object: "c2", Method: "read", Ret: int64(1), Kind: core.KindQuery},
	}
	if core.Admits(spec, bad) {
		t.Fatal("cross-object effects must not leak")
	}
	if core.Admits(spec, []*core.Label{{ID: 1, Object: "c9", Method: "inc"}}) {
		t.Fatal("label of an unknown object must be rejected")
	}
	// Product state helpers.
	init := spec.Init().(ProductState)
	if !init.CloneAbs().EqualAbs(init) {
		t.Fatal("product state clone/equality wrong")
	}
	if init.EqualAbs(ProductState{"c1": init["c1"]}) {
		t.Fatal("product states of different shape must differ")
	}
	if init.String() == "" {
		t.Fatal("product state rendering empty")
	}
}

// fig9System reproduces the Figure 9 history: two OR-Sets, two replicas, no
// delivery, so every operation is visible only at its origin.
func fig9System(t *testing.T) *System {
	t.Helper()
	sys := MustNewSystem(Unrestricted, 2, twoORSets()...)
	sys.MustInvoke("o1", 0, "add", "d")
	sys.MustInvoke("o2", 0, "add", "a")
	sys.MustInvoke("o2", 1, "add", "b")
	sys.MustInvoke("o1", 1, "add", "c")
	return sys
}

func TestFig9CompositionOfExecutionOrderObjects(t *testing.T) {
	sys := fig9System(t)
	h := sys.History()
	spec := SpecOf(sys)
	opts := CheckOptions(sys)

	// The composed history is RA-linearizable (Theorem 5.3)…
	res := core.CheckRA(h, spec, opts)
	if res.Verdict != core.VerdictValid {
		t.Fatalf("Figure 9 history must be RA-linearizable: %v", res.LastErr)
	}

	// …but the specific per-object linearizations o1: add(c)·add(d) and
	// o2: add(a)·add(b) cannot be combined into a global one.
	rew, err := core.RewriteHistory(h, opts.Rewriting)
	if err != nil {
		t.Fatal(err)
	}
	rh := rew.History
	byArg := func(object, elem string) *core.Label {
		for _, l := range rh.Labels() {
			if l.Object == object && l.Method == "add" && l.Args[0] == elem {
				return l
			}
		}
		t.Fatalf("label %s.add(%s) not found", object, elem)
		return nil
	}
	badPerObject := map[string][]*core.Label{
		"o1": {byArg("o1", "c"), byArg("o1", "d")},
		"o2": {byArg("o2", "a"), byArg("o2", "b")},
	}
	ok, _, err := CombinePerObject(rh, badPerObject, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the Figure 9 per-object linearizations must not combine")
	}

	// Choosing the other linearization of o1 (add(d)·add(c)) does combine.
	goodPerObject := map[string][]*core.Label{
		"o1": {byArg("o1", "d"), byArg("o1", "c")},
		"o2": {byArg("o2", "a"), byArg("o2", "b")},
	}
	ok, witness, err := CombinePerObject(rh, goodPerObject, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(witness) != 4 {
		t.Fatal("the compatible per-object linearizations must combine")
	}
}

// fig10System reproduces the Figure 10 history: two RGAs over three replicas
// under the unrestricted composition, with timestamp orders that conflict
// across the objects.
func fig10System(t *testing.T) (*System, *core.History) {
	t.Helper()
	// o1's generator is scripted so that the write generated later (a) gets
	// the smaller timestamp, as in the figure (ts'1 < ts'2).
	o1Clock := clock.NewScripted(
		clock.Timestamp{Time: 2, Replica: 1}, // ts'2 for b (generated first)
		clock.Timestamp{Time: 1, Replica: 2}, // ts'1 for a (generated second)
	)
	sys := MustNewSystem(Unrestricted, 3,
		Object{Name: "o1", Descriptor: rga.Descriptor(), Clock: o1Clock},
		Object{Name: "o2", Descriptor: rga.Descriptor()},
	)
	c := sys.MustInvoke("o2", 0, "addAfter", rga.Root, "c") // ts1
	b := sys.MustInvoke("o1", 1, "addAfter", rga.Root, "b") // ts'2
	d := sys.MustInvoke("o2", 1, "addAfter", rga.Root, "d") // ts2
	sys.MustInvoke("o2", 2, "addAfter", rga.Root, "e")      // ts3
	sys.MustInvoke("o1", 2, "addAfter", rga.Root, "a")      // ts'1 < ts'2
	// Replica r3 receives c, d (object o2) and b (object o1), then reads.
	if err := sys.Deliver("o2", 2, c.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver("o2", 2, d.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver("o1", 2, b.ID); err != nil {
		t.Fatal(err)
	}
	readO2 := sys.MustInvoke("o2", 2, "read")
	readO1 := sys.MustInvoke("o1", 2, "read")
	if !core.ValueEqual(readO2.Ret, []string{"e", "d", "c"}) {
		t.Fatalf("o2 read %v, want [e d c]", readO2.Ret)
	}
	if !core.ValueEqual(readO1.Ret, []string{"b", "a"}) {
		t.Fatalf("o1 read %v, want [b a]", readO1.Ret)
	}
	return sys, sys.History()
}

func TestFig10UnrestrictedCompositionNotRALinearizable(t *testing.T) {
	sys, h := fig10System(t)
	res := core.CheckRA(h, SpecOf(sys), CheckOptions(sys))
	if res.Verdict != core.VerdictInvalid {
		t.Fatalf("Figure 10 history must be refuted under ⊗, got %v; witness: %s",
			res.Verdict, core.FormatLabels(res.Linearization))
	}
}

func TestFig10SharedTimestampCompositionIsRALinearizable(t *testing.T) {
	// Under ⊗ts the same program order cannot produce the conflicting
	// timestamps: the resulting history is RA-linearizable (Theorem 5.5).
	sys := MustNewSystem(SharedTimestamps, 3,
		Object{Name: "o1", Descriptor: rga.Descriptor()},
		Object{Name: "o2", Descriptor: rga.Descriptor()},
	)
	c := sys.MustInvoke("o2", 0, "addAfter", rga.Root, "c")
	b := sys.MustInvoke("o1", 1, "addAfter", rga.Root, "b")
	d := sys.MustInvoke("o2", 1, "addAfter", rga.Root, "d")
	sys.MustInvoke("o2", 2, "addAfter", rga.Root, "e")
	sys.MustInvoke("o1", 2, "addAfter", rga.Root, "a")
	for _, step := range []struct {
		obj string
		id  uint64
	}{{"o2", c.ID}, {"o2", d.ID}, {"o1", b.ID}} {
		if err := sys.Deliver(step.obj, 2, step.id); err != nil {
			t.Fatal(err)
		}
	}
	sys.MustInvoke("o2", 2, "read")
	sys.MustInvoke("o1", 2, "read")
	res := core.CheckRA(sys.History(), SpecOf(sys), CheckOptions(sys))
	if res.Verdict != core.VerdictValid {
		t.Fatalf("⊗ts composition must be RA-linearizable: %v", res.LastErr)
	}
}

func TestComposeRandomWorkloadSharedTimestampsRALinearizable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		sys := MustNewSystem(SharedTimestamps, 2,
			Object{Name: "s", Descriptor: orset.Descriptor()},
			Object{Name: "l", Descriptor: rga.Descriptor()},
		)
		for i := 0; i < 6; i++ {
			if _, err := sys.RandomOp(rng, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sys.DeliverRandom(rng)
			}
		}
		res := core.CheckRA(sys.History(), SpecOf(sys), CheckOptions(sys))
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: composed random history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

func TestCombinePerObjectErrors(t *testing.T) {
	sys := fig9System(t)
	h := sys.History()
	foreign := &core.Label{ID: 999, Object: "o1", Method: "add", Kind: core.KindUpdate}
	if _, _, err := CombinePerObject(h, map[string][]*core.Label{"o1": {foreign, foreign}}, SpecOf(sys)); err == nil {
		t.Fatal("foreign labels must be rejected")
	}
}

func TestComposeRandomWorkloadExecutionOrderObjectsUnrestricted(t *testing.T) {
	// Theorem 5.3: compositions of execution-order objects are RA-linearizable
	// even under the unrestricted composition ⊗.
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 5; trial++ {
		sys := MustNewSystem(Unrestricted, 2,
			Object{Name: "s1", Descriptor: orset.Descriptor()},
			Object{Name: "s2", Descriptor: twopset.Descriptor()},
		)
		for i := 0; i < 6; i++ {
			if _, err := sys.RandomOp(rng, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sys.DeliverRandom(rng)
			}
		}
		res := core.CheckRA(sys.History(), SpecOf(sys), CheckOptions(sys))
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: ⊗ composition of execution-order objects not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

// TestComposedSpecStepAppendMatchesStep fuzzes the product specification's
// core.StepAppender fast path against Step on random labels of both objects
// (admitted and rejected), checking successor-for-successor agreement and
// that the dst prefix survives untouched.
func TestComposedSpecStepAppendMatchesStep(t *testing.T) {
	objects := []Object{
		{Name: "c", Descriptor: counter.Descriptor()},
		{Name: "s", Descriptor: twopset.Descriptor()},
	}
	sp := NewSpec(objects...)
	sentinel := core.AbsState(ProductState{})
	rng := rand.New(rand.NewSource(5))
	phi := sp.Init()
	admitted := 0
	for step := 0; step < 60; step++ {
		var l *core.Label
		switch rng.Intn(4) {
		case 0:
			l = &core.Label{Object: "c", Method: "inc", Kind: core.KindUpdate}
		case 1:
			l = &core.Label{Object: "c", Method: "read", Ret: int64(rng.Intn(4)), Kind: core.KindQuery}
		case 2:
			l = &core.Label{Object: "s", Method: "add", Args: []core.Value{"x"}, Kind: core.KindUpdate}
		default:
			l = &core.Label{Object: "nope", Method: "inc", Kind: core.KindUpdate}
		}
		want := sp.Step(phi, l)
		got := sp.StepAppend([]core.AbsState{sentinel}, phi, l)
		if len(got) != len(want)+1 || !got[0].EqualAbs(sentinel) {
			t.Fatalf("step %d %v: dst prefix clobbered (len %d)", step, l, len(got))
		}
		for i, w := range want {
			if !got[i+1].EqualAbs(w) {
				t.Fatalf("step %d %v: successor %d differs: %v vs %v", step, l, i, w, got[i+1])
			}
		}
		if len(want) > 0 {
			admitted++
			phi = want[rng.Intn(len(want))]
		}
	}
	if admitted == 0 {
		t.Fatal("no admitted transitions — generator too weak")
	}
}
