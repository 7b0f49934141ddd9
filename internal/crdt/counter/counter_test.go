package counter

import (
	"math/rand"
	"testing"

	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestCounterBasics(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "inc")
	sys.MustInvoke(0, "inc")
	sys.MustInvoke(1, "dec")
	if got := sys.MustInvoke(0, "read").Ret; got != int64(2) {
		t.Fatalf("origin read %v, want 2", got)
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		if got := sys.MustInvoke(r, "read").Ret; got != int64(1) {
			t.Fatalf("replica %s read %v, want 1", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("counter must converge")
	}
}

func TestCounterUnknownMethod(t *testing.T) {
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 1})
	if _, err := sys.Invoke(0, "mul"); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestCounterAbs(t *testing.T) {
	if got := Abs(State(7)).String(); got != "7" {
		t.Fatalf("Abs rendering %q", got)
	}
	if !State(3).EqualState(State(3)) || State(3).EqualState(State(4)) {
		t.Fatal("EqualState wrong")
	}
	if State(3).EqualState(nil) {
		t.Fatal("EqualState with nil must be false")
	}
}

func TestCounterRALinearizableScripted(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "inc")
	sys.MustInvoke(1, "inc")
	sys.MustInvoke(0, "read") // sees only one inc
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(1, "read") // sees both
	res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
	if res.Verdict != core.VerdictValid {
		t.Fatalf("counter history must be RA-linearizable: %v", res.LastErr)
	}
	if res.Strategy == nil || *res.Strategy != core.StrategyExecutionOrder {
		t.Fatalf("counter must linearize in execution order, got %v", res.Strategy)
	}
}

func TestCounterRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 8; i++ {
			if _, err := d.RandomOp(rng, sys, nil); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.DeliverRandom(rng) {
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random counter history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}
