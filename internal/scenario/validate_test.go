package scenario

import (
	"strings"
	"testing"
)

// TestScenarioValidate asserts that malformed scenarios are rejected with an
// error naming the offending field — by Validate and by Run, which must not
// panic on them — and that every library scenario validates.
func TestScenarioValidate(t *testing.T) {
	for _, sc := range All() {
		if err := sc.Validate(); err != nil {
			t.Errorf("library scenario %s: %v", sc.Name, err)
		}
	}
	base := func(p Phase) Scenario {
		return Scenario{Name: "bad", CRDT: "OR-Set", Replicas: 3, Phases: []Phase{p}}
	}
	cases := []struct {
		name string
		sc   Scenario
		want string // substring of the error; "" means valid
	}{
		{"valid", base(Phase{Name: "p", Ops: 4, DeliverProb: 50}), ""},
		{"hot replica negative", base(Phase{Name: "p", Ops: 4, HotReplica: -1, HotReplicaBias: 100}), "HotReplica -1"},
		{"hot replica too large", base(Phase{Name: "p", Ops: 4, HotReplica: 3, HotReplicaBias: 10}), "HotReplica 3"},
		{"hot replica ignored without bias", base(Phase{Name: "p", Ops: 4, HotReplica: -1}), ""},
		{"hot replica default size", Scenario{Name: "bad", CRDT: "OR-Set", Phases: []Phase{{Name: "p", Ops: 1, HotReplica: 3, HotReplicaBias: 1}}}, "HotReplica 3"},
		{"paused out of range", base(Phase{Name: "p", Ops: 4, Paused: []int{3}}), "paused replica 3"},
		{"paused negative", base(Phase{Name: "p", Ops: 4, Paused: []int{-1}}), "paused replica -1"},
		{"partition out of range", base(Phase{Name: "p", Ops: 4, Partition: [][]int{{0}, {1, 7}}}), "partition member 7"},
		{"partition overlap", base(Phase{Name: "p", Ops: 4, Partition: [][]int{{0, 1}, {1, 2}}}), "two partition groups"},
		{"negative ops", base(Phase{Name: "p", Ops: -1}), "negative Ops"},
		{"deliver prob high", base(Phase{Name: "p", Ops: 1, DeliverProb: 101}), "DeliverProb 101"},
		{"drop prob negative", base(Phase{Name: "p", Ops: 1, DropProb: -5}), "DropProb -5"},
		{"dup prob high", base(Phase{Name: "p", Ops: 1, DupProb: 200}), "DupProb 200"},
		{"hot elem bias high", base(Phase{Name: "p", Ops: 1, HotElem: "a", HotElemBias: 101}), "HotElemBias 101"},
		{"hot replica bias negative", base(Phase{Name: "p", Ops: 1, HotReplicaBias: -1}), "HotReplicaBias -1"},
		{"boundary probabilities", base(Phase{Name: "p", Ops: 1, DeliverProb: 100, DropProb: 0, DupProb: 100}), ""},
		{"hot elem with join marker", base(Phase{Name: "p", Ops: 1, HotElem: "a|b", HotElemBias: 50}), "HotElem"},
		{"elem with join marker", Scenario{Name: "bad", CRDT: "OR-Set", Elems: []string{"a", "b|c"}, Phases: []Phase{{Name: "p", Ops: 1}}}, `element "b|c"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sc.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				if _, err := Run(c.sc, 1); err != nil {
					t.Fatalf("Run: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate: error %v, want one containing %q", err, c.want)
			}
			h, err := Run(c.sc, 1)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run: history %v, error %v; want an error containing %q", h, err, c.want)
			}
		})
	}
}
