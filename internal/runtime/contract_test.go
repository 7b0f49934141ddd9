package runtime_test

import (
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/runtime"
)

// contractType wraps a state-based type and checks, on every Apply and
// Merge the runtime makes, that the call leaves its input states equal to
// clones taken before it — the contract that lets SBSystem share a sender's
// state with its messages instead of copying it.
type contractType struct {
	runtime.SBType
	t      *testing.T
	calls  map[string]int
	merges int
}

func (c *contractType) Apply(s runtime.State, method string, args []core.Value, ts clock.Timestamp, r clock.ReplicaID) (core.Value, runtime.State, error) {
	before := s.CloneState()
	ret, next, err := c.SBType.Apply(s, method, args, ts, r)
	if !s.EqualState(before) {
		c.t.Fatalf("%s.Apply(%s) modified its input: %v, was %v", c.Name(), method, s, before)
	}
	c.calls[method]++
	return ret, next, err
}

func (c *contractType) Merge(a, b runtime.State) runtime.State {
	ca, cb := a.CloneState(), b.CloneState()
	out := c.SBType.Merge(a, b)
	if !a.EqualState(ca) || !b.EqualState(cb) {
		c.t.Fatalf("%s.Merge modified an input: %v ⊔ %v, were %v ⊔ %v", c.Name(), a, b, ca, cb)
	}
	c.merges++
	return out
}

// TestSBTypesDoNotModifyInputs runs a random execution of every registered
// state-based type through SBSystem with its Apply and Merge wrapped in the
// contract check, then merges every pair of replica states directly.
func TestSBTypesDoNotModifyInputs(t *testing.T) {
	for _, d := range registry.All() {
		if d.SBType == nil {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			ct := &contractType{SBType: d.SBType, t: t, calls: map[string]int{}}
			rng := rand.New(rand.NewSource(1))
			sys := runtime.NewSBSystem(ct, runtime.Config{Replicas: 3})
			for i := 0; i < 80; i++ {
				if _, err := d.RandomOp(rng, sys, diffElems); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					sys.ExchangeRandom(rng)
				}
			}
			for _, a := range sys.Replicas() {
				for _, b := range sys.Replicas() {
					ct.Merge(sys.ReplicaState(a), sys.ReplicaState(b))
				}
			}
			for _, m := range d.SBType.Methods() {
				if ct.calls[m.Name] == 0 {
					t.Errorf("method %s never exercised", m.Name)
				}
			}
			if ct.merges == 0 {
				t.Error("Merge never exercised")
			}
		})
	}
}
