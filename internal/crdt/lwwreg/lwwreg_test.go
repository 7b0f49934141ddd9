package lwwreg

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/runtime"
)

func TestLWWRegisterLastWriterWins(t *testing.T) {
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	w1 := sys.MustInvoke(0, "write", "a")
	w2 := sys.MustInvoke(1, "write", "b") // later timestamp
	if !w1.TS.Less(w2.TS) {
		t.Fatal("second write must carry a larger timestamp")
	}
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		if got := sys.MustInvoke(r, "read").Ret; got != "b" {
			t.Fatalf("replica %s read %v, want b", r, got)
		}
	}
	if !sys.Converged() {
		t.Fatal("register must converge")
	}
}

func TestLWWRegisterStaleEffectorIgnored(t *testing.T) {
	// Deliver the newer write first: the older one must not overwrite it.
	sys := runtime.NewSystem(Type{}, runtime.Config{Replicas: 2})
	w1 := sys.MustInvoke(0, "write", "old")
	w2 := sys.MustInvoke(1, "write", "new")
	if err := sys.Deliver(0, w2.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(1, w1.ID); err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		if got := sys.MustInvoke(r, "read").Ret; got != "new" {
			t.Fatalf("replica %s read %v, want new", r, got)
		}
	}
}

func TestLWWRegisterTimestampOrderLinearization(t *testing.T) {
	// Two concurrent writes: the read sees both and returns the one with the
	// larger timestamp, which only the timestamp-order linearization explains.
	d := Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(1, "write", "late-generated-first")
	sys.MustInvoke(0, "write", "winner")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	sys.MustInvoke(0, "read")
	res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
	if res.Verdict != core.VerdictValid {
		t.Fatalf("LWW-Register history must be RA-linearizable: %v", res.LastErr)
	}
}

func TestLWWRegisterAbsAndTimestamps(t *testing.T) {
	st := State{Val: "x", TS: clock.Timestamp{Time: 4, Replica: 1}}
	if Abs(st).String() != "x" {
		t.Fatal("Abs wrong")
	}
	if got := StateTimestamps(st); len(got) != 1 || got[0] != st.TS {
		t.Fatal("StateTimestamps wrong")
	}
	if got := StateTimestamps(State{}); len(got) != 0 {
		t.Fatal("initial state must expose no timestamps")
	}
	if !st.EqualState(st) || st.EqualState(State{Val: "x"}) {
		t.Fatal("EqualState wrong")
	}
}

func TestLWWRegisterErrors(t *testing.T) {
	typ := Type{}
	if _, _, err := typ.Generate(State{}, "write", nil, clock.Bottom); err == nil {
		t.Fatal("write without argument must fail")
	}
	if _, _, err := typ.Generate(State{}, "write", []core.Value{42}, clock.Bottom); err == nil {
		t.Fatal("mistyped write must fail")
	}
	if _, _, err := typ.Generate(State{}, "swap", nil, clock.Bottom); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestLWWRegisterRandomWorkloadRALinearizable(t *testing.T) {
	d := Descriptor()
	rng := rand.New(rand.NewSource(5))
	elems := []string{"a", "b", "c"}
	for trial := 0; trial < 10; trial++ {
		sys := d.NewOpSystem(runtime.Config{Replicas: 3})
		for i := 0; i < 8; i++ {
			if _, err := d.RandomOp(rng, sys, elems); err != nil {
				t.Fatal(err)
			}
			for rng.Intn(2) == 0 && sys.DeliverRandom(rng) {
			}
		}
		res := core.CheckRA(sys.History(), d.Spec, d.CheckOptions())
		if res.Verdict != core.VerdictValid {
			t.Fatalf("trial %d: random LWW-Register history not RA-linearizable: %v\n%s",
				trial, res.LastErr, sys.History())
		}
	}
}
