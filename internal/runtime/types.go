// Package runtime implements the operational semantics of CRDT objects used
// throughout the paper: the operation-based semantics of Figure 7 (generators,
// effectors, causal delivery, visibility) and the state-based semantics of
// Appendix D (local updates, state-carrying messages, merge). The runtimes are
// in-process simulators; every trace they produce is a trace of the paper's
// labelled transition systems.
package runtime

import (
	"ralin/internal/clock"
	"ralin/internal/core"
)

// State is a replica state σ. Implementations are concrete per CRDT; the
// runtime only needs to copy, compare and print them.
type State interface {
	// CloneState returns an independent deep copy of the state.
	CloneState() State
	// EqualState reports whether two states are equal.
	EqualState(State) bool
	// String renders the state for diagnostics and figures.
	String() string
}

// Effector is a replica state transformer δ produced by the generator of an
// operation and applied at every replica (operation-based CRDTs).
type Effector interface {
	// Apply returns the state resulting from applying the effector to s. It
	// must not modify s.
	Apply(s State) State
	// String renders the effector for diagnostics.
	String() string
}

// EffectorFunc adapts a function and a description to the Effector interface.
type EffectorFunc struct {
	// Name describes the effector, for example "eff-addAfter(a,3@r1,b)".
	Name string
	// F is the state transformer.
	F func(State) State
}

// Apply applies the wrapped function.
func (e EffectorFunc) Apply(s State) State { return e.F(s) }

// String returns the description.
func (e EffectorFunc) String() string { return e.Name }

// MethodInfo describes one method of a CRDT object's interface.
type MethodInfo struct {
	// Name is the method name.
	Name string
	// Kind classifies the method as query, update or query-update
	// (Section 3.1).
	Kind core.Kind
	// GeneratesTimestamp reports whether invocations of the method consume a
	// fresh timestamp from the object's timestamp generator (also used as the
	// unique identifier for methods such as OR-Set add).
	GeneratesTimestamp bool
}

// OpType is an operation-based CRDT object type: the payload declaration and
// the generator/effector code of Listings 1–5 of the paper.
type OpType interface {
	// Name identifies the data type (for example "RGA").
	Name() string
	// Methods lists the interface of the data type.
	Methods() []MethodInfo
	// Init returns the initial replica state σ0.
	Init() State
	// Generate executes the generator of method with the given arguments on
	// the origin replica state s. ts is the fresh timestamp allocated for the
	// invocation (⊥ for methods that do not generate one). It returns the
	// operation's return value and the effector to apply at every replica
	// (nil for queries). A precondition violation is reported as an error.
	// Generate must not modify s.
	Generate(s State, method string, args []core.Value, ts clock.Timestamp) (ret core.Value, eff Effector, err error)
}

// SBType is a state-based CRDT object type following Listing 6: methods
// execute locally and replicas exchange states, merged through the join
// semilattice's least upper bound.
type SBType interface {
	// Name identifies the data type (for example "PN-Counter").
	Name() string
	// Methods lists the interface of the data type.
	Methods() []MethodInfo
	// Init returns the initial replica state σ0.
	Init() State
	// Apply executes method at replica r on state s and returns the return
	// value and the successor state. ts is a fresh timestamp for methods that
	// generate one (⊥ otherwise). Apply must not modify s: the runtime
	// shares a replica's state with the messages it sends.
	Apply(s State, method string, args []core.Value, ts clock.Timestamp, r clock.ReplicaID) (ret core.Value, next State, err error)
	// Merge returns the least upper bound of the two states. It must not
	// modify a or b: the runtime shares a sender's state with the messages
	// it sends instead of copying it.
	Merge(a, b State) State
	// Leq reports whether a ≤ b in the join semilattice (the compare method
	// of Listing 6).
	Leq(a, b State) bool
}

// MethodTable indexes a method list by name.
func MethodTable(ms []MethodInfo) map[string]MethodInfo {
	t := make(map[string]MethodInfo, len(ms))
	for _, m := range ms {
		t[m.Name] = m
	}
	return t
}

// EventKind distinguishes the kinds of recorded execution events.
type EventKind int

const (
	// EventGenerator records the execution of an operation's generator (and,
	// for op-based objects, the immediate application of its effector) at the
	// origin replica.
	EventGenerator EventKind = iota
	// EventEffector records the delivery of an effector at a non-origin
	// replica (op-based objects).
	EventEffector
	// EventMerge records the application of a received state message
	// (state-based objects).
	EventMerge
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case EventGenerator:
		return "generator"
	case EventEffector:
		return "effector"
	case EventMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// Event is one recorded step of an execution. Pre and Post are deep copies of
// the replica state before and after the step; Incoming is the merged remote
// state for EventMerge events.
type Event struct {
	// Kind is the kind of step.
	Kind EventKind
	// Replica is the replica that took the step.
	Replica clock.ReplicaID
	// Label is the operation label for generator and effector events, and the
	// nil label for merge events.
	Label *core.Label
	// Pre is the replica state before the step.
	Pre State
	// Post is the replica state after the step.
	Post State
	// Incoming is the remote state being merged (merge events only).
	Incoming State
	// GenState is, for generator events, the origin state the generator read
	// (identical to Pre). It is kept separately for readability in verify.
	GenState State
}
