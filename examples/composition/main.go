// Composition: a small storefront built from two CRDT objects — an OR-Set of
// cart items and a PN-Counter of loyalty points — replicated at two sites.
// The example contrasts the unrestricted composition ⊗ with the shared
// timestamp generator composition ⊗ts (Section 5): the composed history
// respects the client's cross-object causality (a read of the counter that
// follows a cart update sees it), and it is RA-linearizable with respect to
// the interleaving of the two sequential specifications.
//
//	go run ./examples/composition
package main

import (
	"fmt"
	"log"

	"ralin/internal/clock"
	"ralin/internal/compose"
	"ralin/internal/core"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/pncounter"

	// Activates the pruned search engine for core.CheckRA.
	_ "ralin/internal/search"
)

func main() {
	for _, mode := range []compose.Mode{compose.Unrestricted, compose.SharedTimestamps} {
		run(mode)
		fmt.Println()
	}
}

func run(mode compose.Mode) {
	store, err := compose.NewSystem(mode, 2,
		compose.Object{Name: "cart", Descriptor: orset.Descriptor()},
		compose.Object{Name: "points", Descriptor: pncounter.Descriptor()},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Site 0: the customer puts a book in the cart and earns a loyalty point.
	// The point increment is issued after the cart update on the same
	// replica, so it is causally after it even though the objects differ.
	mustInvoke(store, "cart", 0, "add", "book")
	mustInvoke(store, "points", 0, "inc")
	// Site 1: a concurrent session adds a pen and redeems a point.
	mustInvoke(store, "cart", 1, "add", "pen")
	mustInvoke(store, "points", 1, "dec")

	if err := store.DeliverAll(); err != nil {
		log.Fatal(err)
	}
	cart := mustInvoke(store, "cart", 1, "read")
	points := mustInvoke(store, "points", 0, "read")
	fmt.Printf("composition %s\n", mode)
	fmt.Printf("  cart after convergence:   %v\n", cart.Ret)
	fmt.Printf("  points after convergence: %v\n", points.Ret)

	// Cross-object causality is part of the composed history: the cart add at
	// site 0 is visible to the later points increment at site 0.
	h := store.History()
	labels := h.Labels()
	fmt.Printf("  cart add visible to points inc (same session): %v\n", h.Vis(labels[0].ID, labels[1].ID))

	// The composed history is RA-linearizable with respect to
	// Spec(OR-Set) ⊗ Spec(Counter).
	res := core.CheckRA(h, compose.SpecOf(store), compose.CheckOptions(store))
	fmt.Printf("  composed history verdict: %v (strategy %v)\n", res.Verdict, res.Strategy)
}

func mustInvoke(s *compose.System, object string, replica clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(object, replica, method, args...)
	if err != nil {
		log.Fatal(err)
	}
	return l
}
