// Shopping cart: the Section 3.3 client-reasoning exercise on a realistic
// workload. A shopping cart is an OR-Set replicated at two data centres; one
// session adds and then removes an item while another session concurrently
// re-adds it. The paper's post-condition "if the first session still sees the
// item, so does the second" (a ∈ X ⇒ a ∈ Y) is verified over every possible
// delivery schedule, and every schedule's history is checked
// RA-linearizable — exactly the reasoning the paper carries out at the level
// of the sequential specification.
//
//	go run ./examples/shopping-cart
package main

import (
	"fmt"
	"log"

	"ralin/internal/core"
	"ralin/internal/crdt/orset"
	"ralin/internal/harness"
)

func main() {
	d := orset.Descriptor()

	// Data centre 0: customer adds "umbrella", support removes it, the
	// session then renders the cart (X = read()).
	// Data centre 1: the customer concurrently re-adds "umbrella" and renders
	// the cart (Y = read()).
	program := harness.Program{
		{
			{Method: "add", Args: []core.Value{"umbrella"}},
			{Method: "remove", Args: []core.Value{"umbrella"}},
			{Method: "read"},
		},
		{
			{Method: "add", Args: []core.Value{"umbrella"}},
			{Method: "read"},
		},
	}

	schedules, violations := 0, 0
	verdicts := map[core.Verdict]int{}
	_, err := harness.ExploreSchedules(d, program, 0, func(run harness.Run) bool {
		schedules++
		x := run.Label(0, 2).Ret.([]string)
		y := run.Label(1, 1).Ret.([]string)
		if contains(x, "umbrella") && !contains(y, "umbrella") {
			violations++
			fmt.Printf("POST-CONDITION VIOLATION under schedule %v\n", run.Schedule)
		}
		res := core.CheckRA(run.System.History(), d.Spec, d.CheckOptions())
		verdicts[res.Verdict]++
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("shopping-cart client reasoning (Section 3.3)")
	fmt.Println("  program:  dc0: add(umbrella) · remove(umbrella) · X=read")
	fmt.Println("            dc1: add(umbrella) · Y=read")
	fmt.Println("  post-condition: umbrella ∈ X ⇒ umbrella ∈ Y")
	fmt.Printf("  schedules explored:            %d\n", schedules)
	fmt.Printf("  post-condition violations:     %d\n", violations)
	fmt.Printf("  invalid verdicts:              %d\n", verdicts[core.VerdictInvalid])
	fmt.Printf("  unknown verdicts:              %d\n", verdicts[core.VerdictUnknown])
	if violations == 0 && verdicts[core.VerdictValid] == schedules {
		fmt.Println("  => the invariant holds in every execution, as derived in the paper from Spec(OR-Set)")
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
