package twopset

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestTwoPSetAddRemove(t *testing.T) {
	d := Descriptor()
	sys := d.NewSBSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "a")
	sys.MustInvoke(1, "add", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "remove", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"a"}) {
			t.Fatalf("replica %s read %v, want [a]", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("2P-Set must converge")
	}
}

func TestTwoPSetRemoveWinsForever(t *testing.T) {
	// Once removed, an element can never come back, even if an add is
	// delivered afterwards.
	sys := runtime.NewSBSystem(Type{}, runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "add", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(1, "remove", "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	got := sys.MustInvoke(0, "read").Ret
	if !core.ValueEqual(got, []string{}) {
		t.Fatalf("read %v, want []", got)
	}
}

func TestTwoPSetRemovePrecondition(t *testing.T) {
	sys := runtime.NewSBSystem(Type{}, runtime.Config{Replicas: 1})
	if _, err := sys.Invoke(0, "remove", "ghost"); err == nil {
		t.Fatal("removing an element never added must fail")
	}
	sys.MustInvoke(0, "add", "a")
	sys.MustInvoke(0, "remove", "a")
	if _, err := sys.Invoke(0, "remove", "a"); err == nil {
		t.Fatal("removing twice must fail")
	}
}

func TestTwoPSetMergeLattice(t *testing.T) {
	typ := Type{}
	a := NewState()
	a.Adds["x"] = true
	b := NewState()
	b.Adds["x"] = true
	b.Removes["x"] = true
	m := typ.Merge(a, b).(State)
	if !typ.Leq(a, m) || !typ.Leq(b, m) || typ.Leq(b, a) {
		t.Fatal("Leq wrong")
	}
	if got := m.Values(); len(got) != 0 {
		t.Fatalf("merge must keep the removal: %v", got)
	}
	if !typ.Merge(a, a).EqualState(a) || !typ.Merge(a, b).EqualState(typ.Merge(b, a)) {
		t.Fatal("merge must be idempotent and commutative")
	}
}

func TestTwoPSetLocalApplyFreshArgs(t *testing.T) {
	add := &core.Label{Method: "add", Args: []core.Value{"a"}}
	rem := &core.Label{Method: "remove", Args: []core.Value{"a"}}
	st := NewState()
	if !Fresh(st, add) || !Fresh(st, rem) {
		t.Fatal("empty state must be fresh")
	}
	st2 := LocalApply(st, add).(State)
	if len(st.Adds) != 0 {
		t.Fatal("LocalApply must not mutate its input")
	}
	if Fresh(st2, add) {
		t.Fatal("re-adding the same element is not fresh")
	}
	st3 := LocalApply(st2, rem).(State)
	if Fresh(st3, rem) {
		t.Fatal("re-removing the same element is not fresh")
	}
	// Idempotence of local effectors (Prop6).
	if !LocalApply(st3, add).(runtime.State).EqualState(st3) ||
		!LocalApply(st3, rem).(runtime.State).EqualState(st3) {
		t.Fatal("local effectors must be idempotent")
	}
	if !ArgEqual(add, add) || ArgEqual(add, rem) ||
		ArgEqual(add, &core.Label{Method: "add", Args: []core.Value{"b"}}) {
		t.Fatal("ArgEqual wrong")
	}
	if Abs(st3).String() != "[]" {
		t.Fatal("Abs wrong")
	}
}

func TestTwoPSetErrors(t *testing.T) {
	typ := Type{}
	if _, _, err := typ.Apply(NewState(), "add", nil, clock.Bottom, 0); err == nil {
		t.Fatal("add without argument must fail")
	}
	if _, _, err := typ.Apply(NewState(), "add", []core.Value{3}, clock.Bottom, 0); err == nil {
		t.Fatal("mistyped add must fail")
	}
	if _, _, err := typ.Apply(NewState(), "clear", nil, clock.Bottom, 0); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestTwoPSetRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		sys := d.NewSBSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 7; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sys.ExchangeRandom(rng)
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random 2P-Set history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}
