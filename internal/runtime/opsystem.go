package runtime

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// Config configures a simulated object deployment.
type Config struct {
	// Replicas is the number of replicas (identified 0..Replicas-1).
	Replicas int
	// Object is the object name recorded on labels (may be empty for
	// single-object histories).
	Object string
	// Clock is the timestamp generator; nil means a fresh private counter
	// (the unrestricted composition ⊗). Sharing one generator across several
	// systems implements the shared timestamp generator composition ⊗ts.
	Clock clock.Generator
	// RecordEvents enables the event log consumed by the verification
	// harness. Figure reproduction and benchmarks leave it off.
	RecordEvents bool
	// IDs is the label-identifier source; nil means a fresh private source.
	// Sharing one source across systems keeps identifiers unique in composed
	// histories.
	IDs *clock.IDSource
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Clock == nil {
		c.Clock = clock.NewCounter()
	}
	if c.IDs == nil {
		c.IDs = clock.NewIDSource()
	}
}

// opReplica is the local configuration (L, σ) of one replica, op- or
// state-based. L is a bitset over history ranks. In an op-based system it is
// causally closed (Figure 7's causal delivery only ever adds an effector
// whose non-query predecessors are already in L), which is what lets the
// runtime decide deliverability from a per-update dependency row instead of
// the history's visibility relation.
type opReplica struct {
	state State
	seen  bitset
}

// System simulates an operation-based CRDT object following the semantics of
// Figure 7: operations execute their generator (and effector) at the origin
// replica, and effectors are delivered to the other replicas under causal
// delivery.
type System struct {
	typ     OpType
	cfg     Config
	methods map[string]MethodInfo
	// replicas is indexed by replica identifier; ids lists the identifiers.
	replicas []*opReplica
	ids      []clock.ReplicaID
	hist     *core.History
	// effectors holds the effector of the label at each history rank (nil for
	// queries).
	effectors []Effector
	// deps holds, per history rank, the update's causal-dependency row: the
	// origin's seen-set ∩ updates at generation time, which — seen-sets being
	// causally closed — is exactly the non-query part of vis⁻¹. Queries have
	// no row.
	deps []bitset
	// updates marks the ranks of non-query labels.
	updates bitset
	rows    arena
	genSeq  uint64
	events  []Event
	// scratch and choices back DeliverAllTo and DeliverRandom.
	scratch []*core.Label
	choices []delivery
}

// delivery is one candidate (replica, effector) pair.
type delivery struct {
	r  clock.ReplicaID
	id uint64
}

// NewSystem creates a simulated deployment of the given operation-based CRDT.
func NewSystem(typ OpType, cfg Config) *System {
	cfg.fill()
	s := &System{
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

// replicaIDs returns the identifiers 0..n-1.
func replicaIDs(n int) []clock.ReplicaID {
	ids := make([]clock.ReplicaID, n)
	for i := range ids {
		ids[i] = clock.ReplicaID(i)
	}
	return ids
}

// Type returns the simulated CRDT type.
func (s *System) Type() OpType { return s.typ }

// Replicas returns the replica identifiers in increasing order. The slice is
// shared with the system and must not be modified.
func (s *System) Replicas() []clock.ReplicaID { return s.ids[:len(s.ids):len(s.ids)] }

// replica returns the local configuration of r, or nil for an unknown
// replica.
func (s *System) replica(r clock.ReplicaID) *opReplica {
	if r < 0 || int(r) >= len(s.replicas) {
		return nil
	}
	return s.replicas[r]
}

// Invoke executes method with the given arguments at replica r: the OPERATION
// rule of Figure 7. It returns the operation label (already part of the
// history) or an error when the replica is unknown, the method is unknown, or
// the generator's precondition fails.
func (s *System) Invoke(r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
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
	ret, eff, err := s.typ.Generate(rep.state, method, args, ts)
	if err != nil {
		return nil, fmt.Errorf("%s.%s at %s: %w", s.typ.Name(), method, r, err)
	}
	if info.Kind != core.KindQuery && eff == nil {
		return nil, fmt.Errorf("%s.%s: non-query method produced no effector", s.typ.Name(), method)
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
	var deps bitset
	if !l.IsQuery() {
		deps = s.rows.intersect(rep.seen, s.updates)
		s.updates.set(rank)
	}
	s.deps = append(s.deps, deps)
	s.effectors = append(s.effectors, eff)
	pre := rep.state
	if eff != nil {
		rep.state = eff.Apply(rep.state)
	}
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

// addSeenVis inserts the visibility edges from every operation of seen to
// the label with identifier to, in descending rank order. Identifiers
// increase with rank, so this is descending identifier order: the latest —
// most likely vis-maximal — seen operations go in first, and History.AddVis
// disposes of every edge they imply with a single reachability bit probe.
// The order also fixes the recorded direct adjacency.
func addSeenVis(h *core.History, seen bitset, to uint64) error {
	for w := len(seen) - 1; w >= 0; w-- {
		for x := seen[w]; x != 0; {
			b := 63 - bits.LeadingZeros64(x)
			x &^= 1 << uint(b)
			if err := h.AddVis(h.LabelAt(w<<6|b).ID, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendSeenDescending appends the identifiers of seen to dst in descending
// order. Identifiers increase monotonically with generation, so descending
// order visits the latest — most likely vis-maximal — seen operations first:
// once their edges are in, History.AddVis disposes of every edge they imply
// with a single reachability bit probe. Allocation-free given capacity in
// dst; the composed-system runtime inserts its global seen-set edges this
// way.
func AppendSeenDescending(dst []uint64, seen map[uint64]bool) []uint64 {
	for id := range seen {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	slices.Reverse(dst)
	return dst
}

// MustInvoke is Invoke for scripted scenarios where a precondition failure is
// a programming error.
func (s *System) MustInvoke(r clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(r, method, args...)
	if err != nil {
		panic(err)
	}
	return l
}

// pendingWord returns word w of the ranks whose effectors are not yet applied
// at rep.
func (s *System) pendingWord(rep *opReplica, w int) uint64 {
	x := s.updates[w]
	if w < len(rep.seen) {
		x &^= rep.seen[w]
	}
	return x
}

// Pending returns the labels whose effectors have not yet been applied at
// replica r, in generation order. Queries have identity effectors and are
// never pending.
func (s *System) Pending(r clock.ReplicaID) []*core.Label { return s.AppendPending(nil, r) }

// AppendPending appends the labels Pending(r) returns to dst, in generation
// order, and returns the extended slice. It allocates only to grow dst.
func (s *System) AppendPending(dst []*core.Label, r clock.ReplicaID) []*core.Label {
	rep := s.replica(r)
	if rep == nil {
		return dst
	}
	for w := range s.updates {
		for x := s.pendingWord(rep, w); x != 0; x &= x - 1 {
			dst = append(dst, s.hist.LabelAt(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// AppendDeliverable appends to dst, in generation order, the labels whose
// effectors Deliverable(r, ·) accepts right now, and returns the extended
// slice: Pending(r) filtered by Deliverable, as one word-wise subset test per
// pending effector. It allocates only to grow dst.
func (s *System) AppendDeliverable(dst []*core.Label, r clock.ReplicaID) []*core.Label {
	rep := s.replica(r)
	if rep == nil {
		return dst
	}
	for w := range s.updates {
		for x := s.pendingWord(rep, w); x != 0; x &= x - 1 {
			rank := w<<6 | bits.TrailingZeros64(x)
			if s.deps[rank].subsetOf(rep.seen) {
				dst = append(dst, s.hist.LabelAt(rank))
			}
		}
	}
	return dst
}

// Deliverable reports whether the effector of label id can be delivered at
// replica r right now under causal delivery: it has not been applied yet and
// every non-query operation visible to it has already been applied at r.
func (s *System) Deliverable(r clock.ReplicaID, id uint64) bool {
	rep := s.replica(r)
	rank, ok := s.hist.RankOf(id)
	if rep == nil || !ok {
		return false
	}
	return s.updates.test(rank) && !rep.seen.test(rank) && s.deps[rank].subsetOf(rep.seen)
}

// Deliver applies the effector of the operation with the given label
// identifier at replica r: the EFFECTOR rule of Figure 7. It fails when the
// delivery would violate causal delivery or the effector was already applied.
func (s *System) Deliver(r clock.ReplicaID, id uint64) error {
	rep := s.replica(r)
	if rep == nil {
		return fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	rank, ok := s.hist.RankOf(id)
	if !ok {
		return fmt.Errorf("%s: unknown label %d", s.typ.Name(), id)
	}
	l := s.hist.LabelAt(rank)
	if l.IsQuery() {
		return fmt.Errorf("%s: label %v is a query and has no effector to deliver", s.typ.Name(), l)
	}
	if rep.seen.test(rank) {
		return fmt.Errorf("%s: effector of %v already applied at %s", s.typ.Name(), l, r)
	}
	if !s.deps[rank].subsetOf(rep.seen) {
		return fmt.Errorf("%s: delivering %v at %s violates causal delivery", s.typ.Name(), l, r)
	}
	pre := rep.state
	rep.state = s.effectors[rank].Apply(rep.state)
	rep.seen.set(rank)
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:    EventEffector,
			Replica: r,
			Label:   l,
			Pre:     pre.CloneState(),
			Post:    rep.state.CloneState(),
		})
	}
	return nil
}

// DeliverAllTo delivers every pending effector to replica r in a causal
// order.
func (s *System) DeliverAllTo(r clock.ReplicaID) error {
	for {
		progressed := false
		s.scratch = s.AppendPending(s.scratch[:0], r)
		for _, l := range s.scratch {
			if s.Deliverable(r, l.ID) {
				if err := s.Deliver(r, l.ID); err != nil {
					return err
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if rest := len(s.AppendPending(s.scratch[:0], r)); rest > 0 {
		return fmt.Errorf("%s: %d effectors remain undeliverable at %s", s.typ.Name(), rest, r)
	}
	return nil
}

// DeliverAll delivers every pending effector to every replica.
func (s *System) DeliverAll() error {
	for _, r := range s.ids {
		if err := s.DeliverAllTo(r); err != nil {
			return err
		}
	}
	return nil
}

// DeliverRandom delivers one randomly chosen deliverable effector to a
// randomly chosen replica, if any. It reports whether a delivery happened.
func (s *System) DeliverRandom(rng *rand.Rand) bool {
	s.choices = s.choices[:0]
	for _, r := range s.ids {
		s.scratch = s.AppendDeliverable(s.scratch[:0], r)
		for _, l := range s.scratch {
			s.choices = append(s.choices, delivery{r: r, id: l.ID})
		}
	}
	if len(s.choices) == 0 {
		return false
	}
	c := s.choices[rng.Intn(len(s.choices))]
	if err := s.Deliver(c.r, c.id); err != nil {
		panic(err) // Deliverable was just checked; this is a bug.
	}
	return true
}

// ReplicaState returns a copy of the current state of replica r.
func (s *System) ReplicaState(r clock.ReplicaID) State {
	rep := s.replica(r)
	if rep == nil {
		return nil
	}
	return rep.state.CloneState()
}

// Seen returns the identifiers of the operations applied (or originated) at
// replica r — the L component of its local configuration.
func (s *System) Seen(r clock.ReplicaID) map[uint64]bool {
	rep := s.replica(r)
	if rep == nil {
		return nil
	}
	return seenIDs(s.hist, rep.seen)
}

// seenIDs renders a seen-set as a fresh identifier set.
func seenIDs(h *core.History, seen bitset) map[uint64]bool {
	out := make(map[uint64]bool)
	for w, x := range seen {
		for ; x != 0; x &= x - 1 {
			out[h.LabelAt(w<<6|bits.TrailingZeros64(x)).ID] = true
		}
	}
	return out
}

// History returns a copy of the history (L, vis) of the execution so far.
func (s *System) History() *core.History { return s.hist.Clone() }

// TakeHistory returns the history of the execution so far without copying
// it, handing ownership to the caller: the system must not be used
// afterwards. One-shot generators use it in place of History.
func (s *System) TakeHistory() *core.History {
	h := s.hist
	s.hist = nil
	return h
}

// EffectorOf returns the effector produced by the operation with the given
// label identifier (nil for queries).
func (s *System) EffectorOf(id uint64) Effector {
	rank, ok := s.hist.RankOf(id)
	if !ok {
		return nil
	}
	return s.effectors[rank]
}

// Events returns the recorded execution events (empty unless RecordEvents was
// set).
func (s *System) Events() []Event { return append([]Event(nil), s.events...) }

// Converged reports whether all replicas have applied all effectors and hold
// equal states — the convergence property of CRDTs after a quiescent period.
func (s *System) Converged() bool { return converged(s.replicas, s.updates) }

// converged reports whether every replica has seen every update and holds a
// state equal to the first replica's.
func converged(reps []*opReplica, updates bitset) bool {
	for _, rep := range reps {
		if !updates.subsetOf(rep.seen) || !reps[0].state.EqualState(rep.state) {
			return false
		}
	}
	return true
}
