package rga

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

func TestRGAFig2ConflictResolution(t *testing.T) {
	// The Figure 2 scenario: starting from a·b·c (with c and b concurrent
	// children of a and ta < tc < tb), two replicas concurrently insert d and
	// e after c; the one with the larger timestamp is ordered first; finally
	// d is removed.
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addAfter", Root, "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "addAfter", "a", "c") // tc
	sys.MustInvoke(0, "addAfter", "a", "b") // tb > tc, so b comes first
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.MustInvoke(1, "read").Ret; !core.ValueEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("pre-state read %v, want [a b c]", got)
	}
	// Concurrent inserts after c at the two replicas.
	sys.MustInvoke(0, "addAfter", "c", "d") // td
	sys.MustInvoke(1, "addAfter", "c", "e") // te > td, so e is ordered first? No:
	// the element with the *higher* timestamp is visited first among siblings,
	// and here e got the larger timestamp, so the result is a·b·c·e·d unless
	// the paper's order td > te holds. Reproduce the paper's order by checking
	// convergence rather than a fixed literal.
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	r0 := sys.MustInvoke(0, "read").Ret.([]string)
	r1 := sys.MustInvoke(1, "read").Ret.([]string)
	if !core.ValueEqual(r0, r1) {
		t.Fatalf("replicas diverged: %v vs %v", r0, r1)
	}
	// The sibling with the larger timestamp (e) is traversed first.
	want := []string{"a", "b", "c", "e", "d"}
	if !core.ValueEqual(r0, want) {
		t.Fatalf("converged list %v, want %v", r0, want)
	}
	// Removing d hides it everywhere.
	sys.MustInvoke(1, "remove", "d")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	if got := sys.MustInvoke(0, "read").Ret; !core.ValueEqual(got, []string{"a", "b", "c", "e"}) {
		t.Fatalf("read after remove %v, want [a b c e]", got)
	}
	if !sys.Converged() {
		t.Fatal("RGA must converge")
	}
}

func TestRGAConcurrentSiblingsOrderedByTimestamp(t *testing.T) {
	// Figure 8's phenomenon: addAfter(◦, b) is generated first but carries
	// the larger timestamp tsb; the concurrent addAfter(◦, a) carries the
	// smaller tsa. A read that sees both returns b·a, which the
	// execution-order linearization (b before a) cannot explain against
	// Spec(RGA), while the timestamp-order linearization (a before b) can.
	d := Descriptor()
	scripted := clock.NewScripted(
		clock.Timestamp{Time: 2, Replica: 1}, // tsb, generated first
		clock.Timestamp{Time: 1, Replica: 0}, // tsa < tsb, generated second
	)
	sys := d.NewOpSystem(runtime.Config{Replicas: 2, Clock: scripted})
	sys.MustInvoke(1, "addAfter", Root, "b") // larger timestamp, generated first
	sys.MustInvoke(0, "addAfter", Root, "a") // smaller timestamp, generated second
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	got := sys.MustInvoke(0, "read").Ret
	if !core.ValueEqual(got, []string{"b", "a"}) {
		t.Fatalf("read %v, want [b a]", got)
	}
	// The execution-order strategy alone cannot explain this history, the
	// timestamp-order strategy can (Theorem 4.6).
	res := core.CheckRA(sys.History(), d.Spec, core.CheckOptions{
		Strategies: []core.Strategy{core.StrategyExecutionOrder},
	})
	if res.Verdict != core.VerdictUnknown {
		t.Fatal("execution-order linearization should not explain this history")
	}
	res = core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
	if res.Verdict != core.VerdictValid {
		t.Fatalf("timestamp-order linearization must explain this history: %v", res.LastErr)
	}
	if res.Strategy == nil || *res.Strategy != core.StrategyTimestampOrder {
		t.Fatalf("expected a timestamp-order witness, got %v", res.Strategy)
	}
}

func TestRGAPreconditions(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 1})
	if _, err := sys.Invoke(0, "addAfter", "missing", "x"); err == nil {
		t.Fatal("adding after an absent element must fail")
	}
	sys.MustInvoke(0, "addAfter", Root, "a")
	if _, err := sys.Invoke(0, "addAfter", Root, "a"); err == nil {
		t.Fatal("adding a duplicate element must fail")
	}
	if _, err := sys.Invoke(0, "addAfter", Root, Root); err == nil {
		t.Fatal("adding the root must fail")
	}
	if _, err := sys.Invoke(0, "remove", Root); err == nil {
		t.Fatal("removing the root must fail")
	}
	if _, err := sys.Invoke(0, "remove", "missing"); err == nil {
		t.Fatal("removing an absent element must fail")
	}
	sys.MustInvoke(0, "remove", "a")
	if _, err := sys.Invoke(0, "remove", "a"); err == nil {
		t.Fatal("removing twice must fail")
	}
	if _, err := sys.Invoke(0, "addAfter", "a", "b"); err == nil {
		t.Fatal("adding after a tombstoned element must fail at the origin")
	}
	if _, err := sys.Invoke(0, "addAfter"); err == nil {
		t.Fatal("addAfter without arguments must fail")
	}
	if _, err := sys.Invoke(0, "remove"); err == nil {
		t.Fatal("remove without arguments must fail")
	}
	if _, err := sys.Invoke(0, "pop"); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestRGATombstoneKeepsElementAddressable(t *testing.T) {
	// Concurrent remove(a) and addAfter(a, b): the tombstone keeps a in the
	// tree so the insertion still finds its parent.
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "addAfter", Root, "a")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "remove", "a")
	sys.MustInvoke(1, "addAfter", "a", "b")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		got := sys.MustInvoke(r, "read").Ret
		if !core.ValueEqual(got, []string{"b"}) {
			t.Fatalf("replica %s read %v, want [b]", r, got)
		}
	}
}

func TestRGAAbsMapping(t *testing.T) {
	st := NewState()
	st.Nodes["a"] = Node{Parent: Root, TS: clock.Timestamp{Time: 1, Replica: 0}, Elem: "a"}
	st.Nodes["b"] = Node{Parent: Root, TS: clock.Timestamp{Time: 2, Replica: 0}, Elem: "b"}
	st.Tomb["a"] = true
	abs := Abs(st).(spec.ListState)
	if !core.ValueEqual(abs.Elems, []string{Root, "b", "a"}) {
		t.Fatalf("Abs element order wrong: %v", abs.Elems)
	}
	if !abs.Tomb["a"] || len(abs.Tomb) != 1 {
		t.Fatalf("Abs tombstones wrong: %v", abs.Tomb)
	}
	if len(StateTimestamps(st)) != 2 {
		t.Fatal("StateTimestamps wrong")
	}
	if !core.ValueEqual(st.Visible(), []string{"b"}) {
		t.Fatal("Visible wrong")
	}
	if st.String() == "" {
		t.Fatal("String must render something")
	}
}

func TestRGAStateClone(t *testing.T) {
	st := NewState()
	st.Nodes["a"] = Node{Parent: Root, TS: clock.Timestamp{Time: 1}, Elem: "a"}
	clone := st.CloneState().(State)
	clone.Tomb["a"] = true
	clone.Nodes["b"] = Node{Parent: Root, TS: clock.Timestamp{Time: 2}, Elem: "b"}
	if len(st.Tomb) != 0 || len(st.Nodes) != 1 {
		t.Fatal("CloneState must not alias")
	}
	if st.EqualState(clone) {
		t.Fatal("EqualState wrong after mutation")
	}
}

func TestRGARandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 7; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.DeliverRandom(rng) {
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random RGA history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}

func TestRGARandomWorkloadConverges(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 5; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 20; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				sys.DeliverRandom(rng)
			}
		}
		if err := sys.DeliverAll(); err != nil {
			t.Fatal(err)
		}
		if !sys.Converged() {
			t.Fatalf("trial %d: RGA replicas did not converge", trial)
		}
	}
}
