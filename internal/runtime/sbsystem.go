package runtime

import (
	"fmt"
	"math/bits"
	"math/rand"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// Message is a state-carrying message of a state-based CRDT: the local
// configuration (L, σ) of the sending replica at the time of sending
// (Appendix D). Messages may be delivered to any replica, any number of
// times, in any order, or not at all.
type Message struct {
	// ID identifies the message.
	ID uint64
	// From is the sending replica.
	From clock.ReplicaID
	// State is the sender's state at the time of sending. It is shared with
	// the sender, not copied: states are values that Apply and Merge never
	// modify, so the snapshot cannot change after sending. It must not be
	// modified.
	State State
	// seen is the sender's seen-set over history ranks, and hist the history
	// its ranks index.
	seen bitset
	hist *core.History
}

// AppendLabels appends the identifiers of the operations the sender had
// seen, in generation order, to dst and returns the extended slice.
func (m *Message) AppendLabels(dst []uint64) []uint64 {
	for w, x := range m.seen {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, m.hist.LabelAt(w<<6|bits.TrailingZeros64(x)).ID)
		}
	}
	return dst
}

// SBSystem simulates a state-based CRDT object following the semantics of
// Appendix D: methods execute locally, replicas exchange state snapshots, and
// received snapshots are merged with the local state.
type SBSystem struct {
	typ     SBType
	cfg     Config
	methods map[string]MethodInfo
	// replicas is indexed by replica identifier; ids lists the identifiers.
	replicas []*opReplica
	ids      []clock.ReplicaID
	hist     *core.History
	// messages is indexed by message identifier − 1 (identifiers are
	// assigned 1, 2, … in sending order); msgIDs lists the identifiers.
	messages []*Message
	msgIDs   []uint64
	// updates marks the history ranks of non-query labels.
	updates bitset
	// rows backs the seen-sets carried by messages.
	rows   arena
	genSeq uint64
	events []Event
}

// NewSBSystem creates a simulated deployment of the given state-based CRDT.
func NewSBSystem(typ SBType, cfg Config) *SBSystem {
	cfg.fill()
	s := &SBSystem{
		typ:      typ,
		cfg:      cfg,
		methods:  MethodTable(typ.Methods()),
		replicas: make([]*opReplica, cfg.Replicas),
		ids:      replicaIDs(cfg.Replicas),
		hist:     core.NewHistory(),
	}
	for i := range s.replicas {
		s.replicas[i] = &opReplica{state: typ.Init()}
	}
	return s
}

// Type returns the simulated CRDT type.
func (s *SBSystem) Type() SBType { return s.typ }

// Replicas returns the replica identifiers in increasing order. The slice is
// shared with the system and must not be modified.
func (s *SBSystem) Replicas() []clock.ReplicaID { return s.ids[:len(s.ids):len(s.ids)] }

// replica returns the local configuration of r, or nil for an unknown
// replica.
func (s *SBSystem) replica(r clock.ReplicaID) *opReplica {
	if r < 0 || int(r) >= len(s.replicas) {
		return nil
	}
	return s.replicas[r]
}

// Invoke executes method with the given arguments at replica r: the OPERATION
// rule of the state-based semantics.
func (s *SBSystem) Invoke(r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
	rep := s.replica(r)
	if rep == nil {
		return nil, fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	info, ok := s.methods[method]
	if !ok {
		return nil, fmt.Errorf("%s: unknown method %q", s.typ.Name(), method)
	}
	ts := clock.Bottom
	if info.GeneratesTimestamp {
		ts = s.cfg.Clock.Next(r)
	}
	ret, next, err := s.typ.Apply(rep.state, method, args, ts, r)
	if err != nil {
		return nil, fmt.Errorf("%s.%s at %s: %w", s.typ.Name(), method, r, err)
	}
	s.genSeq++
	l := &core.Label{
		ID:     s.cfg.IDs.Next(),
		Object: s.cfg.Object,
		Method: method,
		Args:   append([]core.Value(nil), args...),
		Ret:    ret,
		TS:     ts,
		Kind:   info.Kind,
		Origin: r,
		GenSeq: s.genSeq,
	}
	if err := s.hist.Add(l); err != nil {
		return nil, err
	}
	if err := addSeenVis(s.hist, rep.seen, l.ID); err != nil {
		return nil, err
	}
	rank := s.hist.Len() - 1
	if !l.IsQuery() {
		s.updates.set(rank)
	}
	pre := rep.state
	rep.state = next
	rep.seen.set(rank)
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:     EventGenerator,
			Replica:  r,
			Label:    l,
			Pre:      pre.CloneState(),
			Post:     rep.state.CloneState(),
			GenState: pre.CloneState(),
		})
	}
	return l, nil
}

// MustInvoke is Invoke for scripted scenarios.
func (s *SBSystem) MustInvoke(r clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(r, method, args...)
	if err != nil {
		panic(err)
	}
	return l
}

// Send snapshots the local configuration of replica r into a new message
// (the GENERATE rule). The message stays available for delivery any number of
// times.
func (s *SBSystem) Send(r clock.ReplicaID) (*Message, error) {
	rep := s.replica(r)
	if rep == nil {
		return nil, fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	m := &Message{
		ID:    uint64(len(s.messages)) + 1,
		From:  r,
		State: rep.state,
		seen:  s.rows.clone(rep.seen),
		hist:  s.hist,
	}
	s.messages = append(s.messages, m)
	s.msgIDs = append(s.msgIDs, m.ID)
	return m, nil
}

// Receive merges the message with the given identifier into replica r (the
// APPLY rule). Receiving the same message several times is allowed; the merge
// must be idempotent.
func (s *SBSystem) Receive(r clock.ReplicaID, msgID uint64) error {
	rep := s.replica(r)
	if rep == nil {
		return fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	m := s.Message(msgID)
	if m == nil {
		return fmt.Errorf("%s: unknown message %d", s.typ.Name(), msgID)
	}
	pre := rep.state
	rep.state = s.typ.Merge(rep.state, m.State)
	rep.seen.or(m.seen)
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:     EventMerge,
			Replica:  r,
			Pre:      pre.CloneState(),
			Post:     rep.state.CloneState(),
			Incoming: m.State.CloneState(),
		})
	}
	return nil
}

// Messages returns the identifiers of all messages sent so far, in sending
// order. The slice is shared with the system and must not be modified.
func (s *SBSystem) Messages() []uint64 { return s.msgIDs[:len(s.msgIDs):len(s.msgIDs)] }

// Message returns the message with the given identifier, or nil.
func (s *SBSystem) Message(id uint64) *Message {
	if id == 0 || id > uint64(len(s.messages)) {
		return nil
	}
	return s.messages[id-1]
}

// Broadcast sends the state of replica r and delivers it to every other
// replica.
func (s *SBSystem) Broadcast(r clock.ReplicaID) error {
	m, err := s.Send(r)
	if err != nil {
		return err
	}
	for _, other := range s.ids {
		if other == r {
			continue
		}
		if err := s.Receive(other, m.ID); err != nil {
			return err
		}
	}
	return nil
}

// DeliverAll repeatedly exchanges states between all replicas until no
// replica state changes, bringing the system to a converged configuration.
func (s *SBSystem) DeliverAll() error {
	before := make([]State, len(s.replicas))
	for round := 0; round <= len(s.replicas); round++ {
		changed := false
		for _, r := range s.ids {
			for i, rep := range s.replicas {
				before[i] = rep.state
			}
			if err := s.Broadcast(r); err != nil {
				return err
			}
			for i, rep := range s.replicas {
				if !before[i].EqualState(rep.state) {
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// ExchangeRandom performs one random communication step (a randomly chosen
// replica sends its state to another randomly chosen replica, possibly
// re-delivering an old message). It reports whether anything happened.
func (s *SBSystem) ExchangeRandom(rng *rand.Rand) bool {
	reps := s.ids
	if len(reps) < 2 {
		return false
	}
	from := reps[rng.Intn(len(reps))]
	to := reps[rng.Intn(len(reps))]
	for to == from {
		to = reps[rng.Intn(len(reps))]
	}
	// With probability 1/4, re-deliver an old message instead of a fresh one
	// to exercise duplication and reordering tolerance.
	if ids := s.msgIDs; len(ids) > 0 && rng.Intn(4) == 0 {
		if err := s.Receive(to, ids[rng.Intn(len(ids))]); err != nil {
			panic(err)
		}
		return true
	}
	m, err := s.Send(from)
	if err != nil {
		panic(err)
	}
	if err := s.Receive(to, m.ID); err != nil {
		panic(err)
	}
	return true
}

// ReplicaState returns a copy of the current state of replica r.
func (s *SBSystem) ReplicaState(r clock.ReplicaID) State {
	rep := s.replica(r)
	if rep == nil {
		return nil
	}
	return rep.state.CloneState()
}

// Seen returns the identifiers of the operations visible at replica r.
func (s *SBSystem) Seen(r clock.ReplicaID) map[uint64]bool {
	rep := s.replica(r)
	if rep == nil {
		return nil
	}
	return seenIDs(s.hist, rep.seen)
}

// History returns a copy of the history (L, vis) of the execution so far.
func (s *SBSystem) History() *core.History { return s.hist.Clone() }

// TakeHistory returns the history of the execution so far without copying
// it, handing ownership to the caller: the system must not be used
// afterwards. One-shot generators use it in place of History.
func (s *SBSystem) TakeHistory() *core.History {
	h := s.hist
	s.hist = nil
	return h
}

// Events returns the recorded execution events (empty unless RecordEvents was
// set).
func (s *SBSystem) Events() []Event { return append([]Event(nil), s.events...) }

// Converged reports whether all replicas have seen every state-modifying
// operation and hold equal states. Queries are local and do not count against
// convergence.
func (s *SBSystem) Converged() bool { return converged(s.replicas, s.updates) }
