// Package scenario is the fault-schedule workload engine: it drives the
// operation-based (runtime.System) and state-based (runtime.SBSystem)
// executors under an explicit, seed-deterministic schedule of faults —
// network partitions (split-brain then heal), per-link message delay, drop
// and duplication, replica churn (pause/resume) and hot-key skew — and
// extracts the induced visibility histories for RA-linearizability checking.
//
// Uniform random workloads (harness.RunRandom) spread concurrency evenly;
// real replicated stores cluster it. A partition accumulates two divergent
// sets of updates and releases them at once on heal; a paused replica falls
// behind and re-enters with a stale frontier; a hot key focuses conflicting
// updates on one element. Those clustered shapes are exactly what drives the
// checker into its expensive regions (wide antichains, deep exhaustive
// refutations), so the named scenarios in this package (see library.go)
// produce higher search-node counts and more naive-specification refutations
// than uniform generation at the same operation count.
//
// Scenarios plug into the harness batch pipeline through Generator, which
// implements harness.HistoryGenerator; the histories a scenario produces are
// checked according to its Mode (see check.go) and the hardest ones are
// serialized to testdata/corpus/ (see corpus.go) as a regression set.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/crdt/registry"
	"ralin/internal/runtime"
)

// Phase is one stage of a fault schedule. Ops operations are issued at
// non-paused replicas, interleaved with propagation steps that respect the
// phase's partition, pause set and per-link fault probabilities; when Heal is
// set, the phase ends by reconnecting everything and delivering every pending
// message (the convergence storm).
type Phase struct {
	// Name identifies the phase in diagnostics.
	Name string
	// Ops is the number of operations issued during the phase.
	Ops int
	// Partition groups replica indices into disjoint connection components;
	// messages only propagate within a component. Replicas not listed in any
	// group form singleton components (fully isolated). A nil Partition
	// connects everything.
	Partition [][]int
	// Paused lists replicas that are down for the phase: they issue no
	// operations and neither send nor receive.
	Paused []int
	// DeliverProb is the per-operation probability (percent) of attempting
	// one propagation step after the operation.
	DeliverProb int
	// DropProb is the probability (percent) that an attempted propagation
	// step loses its message. For operation-based objects causal delivery
	// makes true loss unrepresentable, so a drop is a delay: the effector
	// stays pending. For state-based objects the state snapshot is sent but
	// not received; idempotent merge lets the duplication path re-deliver it
	// later, so a drop doubles as delayed delivery.
	DropProb int
	// DupProb is the probability (percent) that a propagation step
	// re-delivers a previously sent state snapshot instead of sending a
	// fresh one (state-based objects only; operation-based effectors are
	// applied at most once per replica by the semantics of Figure 7).
	DupProb int
	// HotElem, when HotElemBias > 0, is the element the workload skews
	// towards: with probability HotElemBias percent an operation draws its
	// element from {HotElem} instead of the scenario alphabet. Like the
	// alphabet, it must not contain "|".
	HotElem string
	// HotElemBias is the hot-element skew in percent.
	HotElemBias int
	// HotReplica, when HotReplicaBias > 0, is the replica the workload skews
	// towards: with probability HotReplicaBias percent an operation is
	// issued there instead of at a uniformly chosen active replica.
	HotReplica int
	// HotReplicaBias is the hot-replica skew in percent.
	HotReplicaBias int
	// Heal reconnects all replicas (including paused ones) at the end of the
	// phase and delivers everything pending.
	Heal bool
	// ReadAll issues a read at every replica after the phase's operations
	// (and after Heal, if set), pinning down what each replica observed at
	// that point — the observation a refutation or a wide-frontier search
	// hinges on, which random operation draws would only sometimes make.
	ReadAll bool
}

// Scenario is a named fault schedule over one CRDT.
type Scenario struct {
	// Name identifies the scenario (for the -scenario flags and the corpus).
	Name string
	// Description is a one-line summary for -list-scenarios.
	Description string
	// CRDT is the registry name of the data type the scenario drives.
	CRDT string
	// Replicas is the deployment size (default 3).
	Replicas int
	// Elems is the element alphabet (default a, b, c). No element may
	// contain "|", which the naive register transform uses as a join marker;
	// Validate rejects one that does.
	Elems []string
	// Phases is the fault schedule.
	Phases []Phase
	// UseHLC timestamps the execution with a hybrid logical clock whose
	// physical component advances one tick per issued operation, skewed per
	// replica by up to ClockSkew ticks — realistic clock behaviour for the
	// timestamp-order linearization strategy to chew on.
	UseHLC bool
	// ClockSkew bounds the per-replica physical clock skew (in ticks) when
	// UseHLC is set.
	ClockSkew uint64
	// Mode selects how the scenario's histories are checked (see check.go).
	Mode Mode
}

// replicas returns the deployment size, applying the default.
func (sc Scenario) replicas() int {
	if sc.Replicas <= 0 {
		return 3
	}
	return sc.Replicas
}

// Validate reports the first malformed field of the scenario: a replica
// index (hot replica with a positive bias, paused replica, partition member)
// outside [0, Replicas), a replica listed in two partition groups, a
// negative operation count, a probability or bias outside 0–100, or an
// element (alphabet entry or hot element) containing "|". Run validates
// before it generates anything. Validate does not resolve the CRDT name; Run
// reports an unknown one.
func (sc Scenario) Validate() error {
	n := sc.replicas()
	inRange := func(r int) bool { return r >= 0 && r < n }
	for _, el := range sc.Elems {
		if strings.Contains(el, "|") {
			return fmt.Errorf("scenario %s: element %q contains \"|\"", sc.Name, el)
		}
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario %s, phase %s: "+format, append([]any{sc.Name, p.Name}, args...)...)
		}
		if p.Ops < 0 {
			return bad("negative Ops %d", p.Ops)
		}
		for _, pr := range []struct {
			name string
			v    int
		}{
			{"DeliverProb", p.DeliverProb},
			{"DropProb", p.DropProb},
			{"DupProb", p.DupProb},
			{"HotElemBias", p.HotElemBias},
			{"HotReplicaBias", p.HotReplicaBias},
		} {
			if pr.v < 0 || pr.v > 100 {
				return bad("%s %d outside 0–100", pr.name, pr.v)
			}
		}
		if p.HotReplicaBias > 0 && !inRange(p.HotReplica) {
			return bad("HotReplica %d outside [0, %d)", p.HotReplica, n)
		}
		if strings.Contains(p.HotElem, "|") {
			return bad("HotElem %q contains \"|\"", p.HotElem)
		}
		for _, r := range p.Paused {
			if !inRange(r) {
				return bad("paused replica %d outside [0, %d)", r, n)
			}
		}
		var listed []bool
		if len(p.Partition) > 0 {
			listed = make([]bool, n)
		}
		for _, grp := range p.Partition {
			for _, r := range grp {
				if !inRange(r) {
					return bad("partition member %d outside [0, %d)", r, n)
				}
				if listed[r] {
					return bad("replica %d listed in two partition groups", r)
				}
				listed[r] = true
			}
		}
	}
	return nil
}

// Run executes the scenario once under the given seed and returns the induced
// history. Runs are deterministic: one seeded generator drives every choice
// (operations, delivery, faults, clock skew), all candidate sets are built in
// sorted replica/message order, and no wall-clock input exists, so the same
// scenario and seed yield a byte-identical history. A scenario that fails
// Validate is reported as an error.
func Run(sc Scenario, seed int64) (*core.History, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	d, err := registry.Lookup(sc.CRDT)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	sc.Replicas = sc.replicas()
	elems := sc.Elems
	if len(elems) == 0 {
		elems = []string{"a", "b", "c"}
	}
	e := &engine{
		d:     d,
		n:     sc.Replicas,
		elems: elems,
		rng:   rand.New(rand.NewSource(seed)),
	}
	cfg := runtime.Config{Replicas: sc.Replicas}
	if sc.UseHLC {
		skew := make([]uint64, sc.Replicas)
		for i := range skew {
			if sc.ClockSkew > 0 {
				skew[i] = uint64(e.rng.Int63n(int64(sc.ClockSkew) + 1))
			}
		}
		e.hlc = clock.NewHLC(func(r clock.ReplicaID) uint64 {
			return e.steps + skew[int(r)]
		})
		e.ts = make(map[uint64]clock.Timestamp)
		cfg.Clock = e.hlc
	}
	if d.OpType != nil {
		e.op = d.NewOpSystem(cfg)
		e.pin.Invoker = e.op
	} else {
		e.sb = d.NewSBSystem(cfg)
		e.pin.Invoker = e.sb
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		if err := e.runPhase(p); err != nil {
			return nil, fmt.Errorf("scenario %s, phase %s: %w", sc.Name, p.Name, err)
		}
	}
	if e.op != nil {
		return e.op.TakeHistory(), nil
	}
	return e.sb.TakeHistory(), nil
}

// engine is the per-run state of the scenario executor.
type engine struct {
	d     crdt.Descriptor
	n     int
	elems []string
	rng   *rand.Rand
	op    *runtime.System
	sb    *runtime.SBSystem
	hlc   *clock.HLC
	// steps is the physical clock: it advances one tick per issued
	// operation, so HLC physical components track execution progress instead
	// of wall time (which would break determinism).
	steps uint64
	// ts records the timestamp generated by each invocation, so deliveries
	// can report it to the HLC (preserving the Figure 7 generator contract:
	// fresh timestamps dominate everything visible at the origin). Only
	// HLC-timestamped runs keep it.
	ts map[uint64]clock.Timestamp
	// pin is the invoker handed to the descriptor's RandomOp, re-pinned to
	// each operation's replica; hot is the one-element alphabet of a
	// hot-element draw.
	pin pinned
	hot [1]string
	// Propagation scratch, reused across steps: candidate labels and
	// (replica, effector) choices for op-based objects, ordered replica
	// pairs, old message identifiers and carried label identifiers for
	// state-based ones.
	labels  []*core.Label
	choices []delivery
	pairs   []link
	olds    []uint64
	ids     []uint64
}

// delivery is one candidate op-based propagation step.
type delivery struct {
	r  clock.ReplicaID
	id uint64
}

// link is one candidate state-based propagation step.
type link struct{ from, to clock.ReplicaID }

// groupsOf maps each replica index to its connection component under the
// phase's partition, which Validate has checked to be disjoint and in range.
func groupsOf(p *Phase, n int) []int {
	g := make([]int, n)
	if len(p.Partition) == 0 {
		return g // all zero: one component
	}
	for i := range g {
		g[i] = -1
	}
	for gi, grp := range p.Partition {
		for _, r := range grp {
			g[r] = gi
		}
	}
	next := len(p.Partition)
	for i := range g {
		if g[i] == -1 {
			g[i] = next // unlisted replicas are isolated
			next++
		}
	}
	return g
}

func (e *engine) runPhase(p *Phase) error {
	groups := groupsOf(p, e.n)
	paused := make([]bool, e.n)
	for _, r := range p.Paused {
		paused[r] = true
	}
	var active []clock.ReplicaID
	for r := 0; r < e.n; r++ {
		if !paused[r] {
			active = append(active, clock.ReplicaID(r))
		}
	}
	if p.Ops > 0 && len(active) == 0 {
		return fmt.Errorf("every replica is paused but the phase issues operations")
	}
	for i := 0; i < p.Ops; i++ {
		e.steps++
		r := active[e.rng.Intn(len(active))]
		if p.HotReplicaBias > 0 && e.rng.Intn(100) < p.HotReplicaBias {
			if !paused[p.HotReplica] {
				r = clock.ReplicaID(p.HotReplica)
			}
		}
		if err := e.invoke(p, r); err != nil {
			return err
		}
		if e.rng.Intn(100) < p.DeliverProb {
			e.propagate(p, groups, paused)
		}
	}
	if p.Heal {
		if err := e.heal(); err != nil {
			return err
		}
	}
	if p.ReadAll {
		for r := 0; r < e.n; r++ {
			e.steps++
			var l *core.Label
			var err error
			if e.op != nil {
				l, err = e.op.Invoke(clock.ReplicaID(r), "read")
			} else {
				l, err = e.sb.Invoke(clock.ReplicaID(r), "read")
			}
			if err != nil {
				return fmt.Errorf("read at replica %d: %w", r, err)
			}
			if e.hlc != nil && l != nil && !l.TS.IsBottom() {
				e.ts[l.ID] = l.TS
			}
		}
	}
	return nil
}

// pinned restricts an invoker to a single replica, so the descriptor's
// RandomOp issues its operation exactly where the schedule decided.
type pinned struct {
	crdt.Invoker
	r [1]clock.ReplicaID
}

// Replicas returns only the pinned replica.
func (p *pinned) Replicas() []clock.ReplicaID { return p.r[:] }

func (e *engine) invoke(p *Phase, r clock.ReplicaID) error {
	elems := e.elems
	if p.HotElemBias > 0 && p.HotElem != "" && e.rng.Intn(100) < p.HotElemBias {
		e.hot[0] = p.HotElem
		elems = e.hot[:]
	}
	e.pin.r[0] = r
	l, err := e.d.RandomOp(e.rng, &e.pin, elems)
	if err != nil {
		return fmt.Errorf("%s operation at replica %d: %w", e.d.Name, r, err)
	}
	if e.hlc != nil && l != nil && !l.TS.IsBottom() {
		e.ts[l.ID] = l.TS
	}
	return nil
}

// propagate attempts one propagation step under the phase's faults.
func (e *engine) propagate(p *Phase, groups []int, paused []bool) {
	if e.op != nil {
		e.propagateOp(p, groups, paused)
	} else {
		e.propagateSB(p, groups, paused)
	}
}

// propagateOp delivers one pending effector whose origin and destination are
// connected (same partition component, neither paused). A drop leaves the
// effector pending — causal delivery makes op-based loss indistinguishable
// from delay.
func (e *engine) propagateOp(p *Phase, groups []int, paused []bool) {
	if p.DropProb > 0 && e.rng.Intn(100) < p.DropProb {
		return
	}
	e.choices = e.choices[:0]
	for _, r := range e.op.Replicas() {
		if paused[int(r)] {
			continue
		}
		e.labels = e.op.AppendDeliverable(e.labels[:0], r)
		for _, l := range e.labels {
			if paused[int(l.Origin)] || groups[int(l.Origin)] != groups[int(r)] {
				continue
			}
			e.choices = append(e.choices, delivery{r, l.ID})
		}
	}
	if len(e.choices) == 0 {
		return
	}
	c := e.choices[e.rng.Intn(len(e.choices))]
	if err := e.op.Deliver(c.r, c.id); err == nil {
		e.observe(c.r, c.id)
	}
}

// propagateSB exchanges state between one connected ordered pair, subject to
// drop (snapshot sent, never received) and duplication (an old snapshot from
// a connected sender is re-delivered; merge idempotence makes this safe and
// turns earlier drops into delays).
func (e *engine) propagateSB(p *Phase, groups []int, paused []bool) {
	e.pairs = e.pairs[:0]
	for _, a := range e.sb.Replicas() {
		if paused[int(a)] {
			continue
		}
		for _, b := range e.sb.Replicas() {
			if a == b || paused[int(b)] || groups[int(a)] != groups[int(b)] {
				continue
			}
			e.pairs = append(e.pairs, link{a, b})
		}
	}
	if len(e.pairs) == 0 {
		return
	}
	pr := e.pairs[e.rng.Intn(len(e.pairs))]
	if p.DupProb > 0 && e.rng.Intn(100) < p.DupProb {
		e.olds = e.olds[:0]
		for _, id := range e.sb.Messages() {
			m := e.sb.Message(id)
			from := int(m.From)
			if m.From == pr.to || paused[from] || groups[from] != groups[int(pr.to)] {
				continue
			}
			e.olds = append(e.olds, id)
		}
		if len(e.olds) > 0 {
			id := e.olds[e.rng.Intn(len(e.olds))]
			if err := e.sb.Receive(pr.to, id); err == nil {
				e.observeMsg(pr.to, id)
			}
			return
		}
	}
	m, err := e.sb.Send(pr.from)
	if err != nil {
		return
	}
	if p.DropProb > 0 && e.rng.Intn(100) < p.DropProb {
		return
	}
	if err := e.sb.Receive(pr.to, m.ID); err == nil {
		e.observeMsg(pr.to, m.ID)
	}
}

// heal reconnects everything (ending partitions and pauses) and delivers
// every pending message, reporting each delivery to the HLC.
//
// For op-based objects each replica in turn receives every pending effector
// in generation order. That is a causal order: an effector depends only on
// earlier-generated updates, each already applied or pending, so the
// earliest pending effector is always deliverable — which also makes this
// exactly the order of repeatedly delivering the earliest deliverable one.
// Deliver still checks causal delivery on every step.
func (e *engine) heal() error {
	if e.op != nil {
		for _, r := range e.op.Replicas() {
			e.labels = e.op.AppendPending(e.labels[:0], r)
			for _, l := range e.labels {
				if err := e.op.Deliver(r, l.ID); err != nil {
					return err
				}
				e.observe(r, l.ID)
			}
		}
		return nil
	}
	rs := e.sb.Replicas()
	for round := 0; round <= len(rs); round++ {
		if e.sb.Converged() {
			return nil
		}
		for _, r := range rs {
			m, err := e.sb.Send(r)
			if err != nil {
				return err
			}
			for _, to := range rs {
				if to == r {
					continue
				}
				if err := e.sb.Receive(to, m.ID); err != nil {
					return err
				}
				e.observeMsg(to, m.ID)
			}
		}
	}
	return nil
}

// observe reports a delivered effector's timestamp to the HLC.
func (e *engine) observe(r clock.ReplicaID, id uint64) {
	if e.hlc == nil {
		return
	}
	if ts, ok := e.ts[id]; ok {
		e.hlc.Observe(r, ts)
	}
}

// observeMsg reports every timestamp carried by a merged state snapshot to
// the HLC.
func (e *engine) observeMsg(r clock.ReplicaID, msgID uint64) {
	if e.hlc == nil {
		return
	}
	m := e.sb.Message(msgID)
	if m == nil {
		return
	}
	e.ids = m.AppendLabels(e.ids[:0])
	for _, id := range e.ids {
		if ts, ok := e.ts[id]; ok {
			e.hlc.Observe(r, ts)
		}
	}
}
