package runtime_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/crdt/registry"
	"ralin/internal/runtime"
)

// The differential tests below compare the runtimes' rank-bitset
// bookkeeping against a reference built the slow, obviously-correct way:
// per-replica identifier maps updated on every step, and causal
// deliverability read off History.VisibleTo. A run issues well over 128
// operations, so seen-sets, dependency rows and message snapshots span
// several bitset words.

var diffElems = []string{"a", "b", "c"}

// opReference is the reference model of an op-based deployment: the
// identifiers each replica has applied or originated.
type opReference struct {
	seen []map[uint64]bool
}

func (ref *opReference) deliverable(h *core.History, r clock.ReplicaID, l *core.Label) bool {
	if l.IsQuery() || ref.seen[r][l.ID] {
		return false
	}
	for _, p := range h.VisibleTo(l) {
		if !p.IsQuery() && !ref.seen[r][p.ID] {
			return false
		}
	}
	return true
}

func (ref *opReference) pending(h *core.History, r clock.ReplicaID) []uint64 {
	var out []uint64
	for _, l := range h.Labels() {
		if !l.IsQuery() && !ref.seen[r][l.ID] {
			out = append(out, l.ID)
		}
	}
	return out
}

func labelIDs(ls []*core.Label) []uint64 {
	var out []uint64
	for _, l := range ls {
		out = append(out, l.ID)
	}
	return out
}

// statesEqual reports whether every replica holds a state equal to replica
// 0's.
func statesEqual(sys crdt.Invoker) bool {
	first := sys.ReplicaState(0)
	for _, r := range sys.Replicas() {
		if !first.EqualState(sys.ReplicaState(r)) {
			return false
		}
	}
	return true
}

// checkOp asserts that every query of sys agrees with the reference.
func (ref *opReference) checkOp(t *testing.T, sys *runtime.System, step string) {
	t.Helper()
	h := sys.History()
	converged := true
	for _, r := range sys.Replicas() {
		want := ref.pending(h, r)
		if got := labelIDs(sys.Pending(r)); !slices.Equal(got, want) {
			t.Fatalf("%s: Pending(%s) = %v, reference %v", step, r, got, want)
		}
		if len(want) > 0 {
			converged = false
		}
		var wantDeliverable []uint64
		for _, l := range h.Labels() {
			d := ref.deliverable(h, r, l)
			if got := sys.Deliverable(r, l.ID); got != d {
				t.Fatalf("%s: Deliverable(%s, %v) = %v, reference %v", step, r, l, got, d)
			}
			if d {
				wantDeliverable = append(wantDeliverable, l.ID)
			}
		}
		// A non-empty dst checks the append contract too.
		sentinel := &core.Label{ID: 1 << 62}
		got := sys.AppendDeliverable([]*core.Label{sentinel}, r)
		if got[0] != sentinel || !slices.Equal(labelIDs(got[1:]), wantDeliverable) {
			t.Fatalf("%s: AppendDeliverable(%s) = %v, reference %v", step, r, labelIDs(got[1:]), wantDeliverable)
		}
		if got := sys.Seen(r); !maps.Equal(got, ref.seen[r]) {
			t.Fatalf("%s: Seen(%s) = %v, reference %v", step, r, got, ref.seen[r])
		}
	}
	if want := converged && statesEqual(sys); sys.Converged() != want {
		t.Fatalf("%s: Converged() = %v, reference %v", step, !want, want)
	}
}

// TestOpSystemMatchesReference drives random interleavings of Invoke,
// Deliver (attempted on arbitrary replica/label pairs, so causally
// premature, duplicate and query deliveries are exercised too) and
// DeliverAllTo for every operation-based registry descriptor, and checks
// Deliverable, AppendDeliverable, Pending, Seen and Converged against the
// reference after every step.
func TestOpSystemMatchesReference(t *testing.T) {
	const replicas, steps = 3, 260
	for _, d := range registry.All() {
		if d.OpType == nil {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sys := d.NewOpSystem(runtime.Config{Replicas: replicas})
				ref := &opReference{}
				for range replicas {
					ref.seen = append(ref.seen, map[uint64]bool{})
				}
				ref.checkOp(t, sys, "initial")
				for i := 0; i < steps; i++ {
					var step string
					switch k := rng.Intn(20); {
					case k < 11:
						l, err := d.RandomOp(rng, sys, diffElems)
						if err != nil {
							t.Fatalf("seed %d step %d: %v", seed, i, err)
						}
						ref.seen[l.Origin][l.ID] = true
						step = fmt.Sprintf("seed %d step %d: invoke %v at %s", seed, i, l, l.Origin)
					case k < 19:
						h := sys.History()
						if h.Len() == 0 {
							continue
						}
						r := clock.ReplicaID(rng.Intn(replicas))
						l := h.LabelAt(rng.Intn(h.Len()))
						want := ref.deliverable(h, r, l)
						err := sys.Deliver(r, l.ID)
						if (err == nil) != want {
							t.Fatalf("seed %d step %d: Deliver(%s, %v) error %v, reference deliverable %v", seed, i, r, l, err, want)
						}
						if err == nil {
							ref.seen[r][l.ID] = true
						}
						step = fmt.Sprintf("seed %d step %d: deliver %v at %s", seed, i, l, r)
					default:
						r := clock.ReplicaID(rng.Intn(replicas))
						h := sys.History()
						if err := sys.DeliverAllTo(r); err != nil {
							t.Fatalf("seed %d step %d: DeliverAllTo(%s): %v", seed, i, r, err)
						}
						for _, id := range ref.pending(h, r) {
							ref.seen[r][id] = true
						}
						step = fmt.Sprintf("seed %d step %d: deliver all at %s", seed, i, r)
					}
					ref.checkOp(t, sys, step)
				}
				if err := sys.DeliverAll(); err != nil {
					t.Fatalf("seed %d: DeliverAll: %v", seed, err)
				}
				if !sys.Converged() {
					t.Fatalf("seed %d: not converged after DeliverAll", seed)
				}
			}
		})
	}
}

// sbReference is the reference model of a state-based deployment: each
// replica's seen identifiers, and each message's carried identifiers and
// state as they were at sending time.
type sbReference struct {
	seen     []map[uint64]bool
	msgSeen  map[uint64]map[uint64]bool
	msgState map[uint64]runtime.State
}

// checkSB asserts that every query of sys agrees with the reference and that
// no message snapshot changed after sending.
func (ref *sbReference) checkSB(t *testing.T, sys *runtime.SBSystem, step string) {
	t.Helper()
	h := sys.History()
	converged := true
	for _, r := range sys.Replicas() {
		if got := sys.Seen(r); !maps.Equal(got, ref.seen[r]) {
			t.Fatalf("%s: Seen(%s) = %v, reference %v", step, r, got, ref.seen[r])
		}
		for _, l := range h.Labels() {
			if !l.IsQuery() && !ref.seen[r][l.ID] {
				converged = false
			}
		}
	}
	if want := converged && statesEqual(sys); sys.Converged() != want {
		t.Fatalf("%s: Converged() = %v, reference %v", step, !want, want)
	}
	ids := sys.Messages()
	if len(ids) != len(ref.msgSeen) {
		t.Fatalf("%s: %d messages, reference %d", step, len(ids), len(ref.msgSeen))
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("%s: Messages()[%d] = %d, want %d", step, i, id, i+1)
		}
		m := sys.Message(id)
		want := slices.Sorted(maps.Keys(ref.msgSeen[id]))
		if got := m.AppendLabels(nil); !slices.Equal(got, want) {
			t.Fatalf("%s: message %d carries %v, reference %v", step, id, got, want)
		}
		if !m.State.EqualState(ref.msgState[id]) {
			t.Fatalf("%s: message %d state changed after sending: %v, sent %v", step, id, m.State, ref.msgState[id])
		}
	}
	if sys.Message(0) != nil || sys.Message(uint64(len(ids)+1)) != nil {
		t.Fatalf("%s: Message returned a message for an unassigned identifier", step)
	}
}

// TestSBSystemMatchesReference drives random interleavings of Invoke, Send,
// Receive of fresh, old and duplicate messages, Broadcast and
// ExchangeRandom for every state-based registry descriptor, and checks Seen,
// Converged, Messages and the messages' carried labels and states against
// the reference after every step.
func TestSBSystemMatchesReference(t *testing.T) {
	const replicas, steps = 3, 260
	for _, d := range registry.All() {
		if d.SBType == nil {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sys := d.NewSBSystem(runtime.Config{Replicas: replicas})
				ref := &sbReference{msgSeen: map[uint64]map[uint64]bool{}, msgState: map[uint64]runtime.State{}}
				for range replicas {
					ref.seen = append(ref.seen, map[uint64]bool{})
				}
				send := func(r clock.ReplicaID) uint64 {
					m, err := sys.Send(r)
					if err != nil {
						t.Fatalf("seed %d: Send(%s): %v", seed, r, err)
					}
					ref.msgSeen[m.ID] = maps.Clone(ref.seen[r])
					ref.msgState[m.ID] = sys.ReplicaState(r)
					return m.ID
				}
				receive := func(r clock.ReplicaID, id uint64) {
					if err := sys.Receive(r, id); err != nil {
						t.Fatalf("seed %d: Receive(%s, %d): %v", seed, r, id, err)
					}
					maps.Copy(ref.seen[r], ref.msgSeen[id])
				}
				ref.checkSB(t, sys, "initial")
				for i := 0; i < steps; i++ {
					var step string
					r := clock.ReplicaID(rng.Intn(replicas))
					switch k := rng.Intn(20); {
					case k < 10:
						l, err := d.RandomOp(rng, sys, diffElems)
						if err != nil {
							t.Fatalf("seed %d step %d: %v", seed, i, err)
						}
						ref.seen[l.Origin][l.ID] = true
						step = fmt.Sprintf("seed %d step %d: invoke %v at %s", seed, i, l, l.Origin)
					case k < 13:
						id := send(r)
						step = fmt.Sprintf("seed %d step %d: send %d from %s", seed, i, id, r)
					case k < 17:
						// Receive any message sent so far: fresh, old (reordered)
						// or already received (duplicated).
						ids := sys.Messages()
						if len(ids) == 0 {
							continue
						}
						id := ids[rng.Intn(len(ids))]
						receive(r, id)
						step = fmt.Sprintf("seed %d step %d: receive %d at %s", seed, i, id, r)
					case k < 19:
						id := send(r)
						for _, o := range sys.Replicas() {
							if o != r {
								receive(o, id)
							}
						}
						step = fmt.Sprintf("seed %d step %d: broadcast from %s", seed, i, r)
					default:
						// Replay ExchangeRandom's draws on a copy of the generator
						// to learn which message it delivers where.
						peek := rand.New(rand.NewSource(seed*1000 + int64(i)))
						shadow := rand.New(rand.NewSource(seed*1000 + int64(i)))
						from := clock.ReplicaID(shadow.Intn(replicas))
						to := clock.ReplicaID(shadow.Intn(replicas))
						for to == from {
							to = clock.ReplicaID(shadow.Intn(replicas))
						}
						ids := sys.Messages()
						if len(ids) > 0 && shadow.Intn(4) == 0 {
							maps.Copy(ref.seen[to], ref.msgSeen[ids[shadow.Intn(len(ids))]])
						} else {
							next := uint64(len(ids) + 1)
							ref.msgSeen[next] = maps.Clone(ref.seen[from])
							ref.msgState[next] = sys.ReplicaState(from)
							maps.Copy(ref.seen[to], ref.msgSeen[next])
						}
						sys.ExchangeRandom(peek)
						step = fmt.Sprintf("seed %d step %d: exchange %s→%s", seed, i, from, to)
					}
					ref.checkSB(t, sys, step)
				}
				if err := sys.DeliverAll(); err != nil {
					t.Fatalf("seed %d: DeliverAll: %v", seed, err)
				}
				if !sys.Converged() {
					t.Fatalf("seed %d: not converged after DeliverAll", seed)
				}
			}
		})
	}
}
