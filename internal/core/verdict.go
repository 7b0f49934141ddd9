package core

import (
	"context"
	"fmt"
)

// Verdict is the three-valued outcome of an RA-linearizability check. It keeps
// "searched everything and found no witness" apart from "ran out of budget
// before deciding": a checker running under deadlines and memory budgets must
// not report the second as a refutation. The zero value is VerdictUnknown, so
// a Result that never reached a decision reports honestly by default.
type Verdict int

const (
	// VerdictUnknown: the check was truncated — by a deadline, a node or
	// memory budget, caller cancellation, or a recovered panic — before it
	// could decide. Result.Incomplete carries the reason. Unknown is always a
	// sound answer: it never has the wrong polarity.
	VerdictUnknown Verdict = iota
	// VerdictValid: a witness RA-linearization was found.
	VerdictValid
	// VerdictInvalid: the search space was exhausted and no witness exists.
	VerdictInvalid
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictValid:
		return "valid"
	case VerdictInvalid:
		return "invalid"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// IncompleteReason classifies why a check returned VerdictUnknown.
type IncompleteReason string

const (
	// ReasonDeadline: the Context's deadline expired mid-check.
	ReasonDeadline IncompleteReason = "deadline"
	// ReasonCancelled: the Context was cancelled by the caller.
	ReasonCancelled IncompleteReason = "cancelled"
	// ReasonNodeBudget: the node budget (MaxNodes, or the MaxExtensions cap
	// of the legacy enumerator) truncated the search.
	ReasonNodeBudget IncompleteReason = "node-budget"
	// ReasonMemBudget: the session memory budget tripped, the search degraded
	// to memo-less mode, and the degraded search then could not finish within
	// its node budget.
	ReasonMemBudget IncompleteReason = "mem-budget"
	// ReasonPanic: a worker (or the trial itself) panicked; the panic was
	// recovered, its stack captured, and the check converted into this
	// per-check outcome instead of crashing the process.
	ReasonPanic IncompleteReason = "panic"
	// ReasonNoSearch: every configured constructive strategy failed and the
	// exhaustive search is disabled (CheckOptions.Exhaustive false), so no
	// definitive negative answer is possible.
	ReasonNoSearch IncompleteReason = "strategies-exhausted"
)

// Incomplete explains a VerdictUnknown result.
type Incomplete struct {
	// Reason classifies the truncation.
	Reason IncompleteReason
	// Detail is a human-readable elaboration (budget values, the panic
	// message, the context error).
	Detail string
	// Stack is the captured goroutine stack when Reason is ReasonPanic.
	Stack string
}

// String renders the reason and detail on one line (the stack is omitted).
func (inc *Incomplete) String() string {
	if inc == nil {
		return ""
	}
	if inc.Detail == "" {
		return string(inc.Reason)
	}
	return fmt.Sprintf("%s: %s", inc.Reason, inc.Detail)
}

// ContextIncomplete translates a Context's error state into an Incomplete:
// nil while the context is live (or nil), ReasonDeadline after expiry and
// ReasonCancelled after cancellation. The search engine and the batch pool
// use it so every layer reports the same reason for the same interruption.
func ContextIncomplete(ctx context.Context) *Incomplete {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if err == context.DeadlineExceeded {
		return &Incomplete{Reason: ReasonDeadline, Detail: err.Error()}
	}
	return &Incomplete{Reason: ReasonCancelled, Detail: err.Error()}
}

// ApplyOutcome folds a search engine's outcome into r: the engine statistics,
// the last rejection, and the verdict — Valid with the engine's witness,
// Invalid when the search space was exhausted, otherwise Unknown with the
// engine's truncation reason (ReasonNodeBudget when it gave none). It is the
// only place an EngineOutcome becomes a verdict; callers checking RA mode
// wrap an Invalid verdict's LastErr in ErrNotRALinearizable themselves.
func (r *Result) ApplyOutcome(out EngineOutcome) {
	r.Tried += out.Leaves
	r.Nodes = out.Nodes
	r.Pruned = out.Pruned
	r.MemoHits = out.MemoHits
	r.Steals = out.Steals
	r.Shards = out.Shards
	r.Workers = out.Workers
	r.PlanReused = out.PlanReused
	r.MemDegraded = out.MemDegraded
	if out.LastErr != nil {
		r.LastErr = out.LastErr
	}
	switch {
	case out.OK:
		r.Verdict = VerdictValid
		r.Linearization = out.Witness
	case out.Complete:
		r.Verdict = VerdictInvalid
	default:
		r.Incomplete = out.Incomplete
		if r.Incomplete == nil {
			r.Incomplete = &Incomplete{Reason: ReasonNodeBudget, Detail: "exhaustive search truncated"}
		}
	}
}
