package scenario

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ralin/internal/core"
)

// historyDigest is a 64-bit FNV-1a hash of a history's labels (in insertion
// order, with identifier, rendering, kind, origin and generator sequence) and
// its direct visibility edges — the same fields as the end-to-end
// benchmark's input digest, so equal digests identify the same generated
// history.
func historyDigest(h *core.History) string {
	f := fnv.New64a()
	for _, l := range h.Labels() {
		fmt.Fprintf(f, "%d %s %d %d %d\n", l.ID, l, l.Kind, l.Origin, l.GenSeq)
	}
	h.DirectVisEdges(func(from, to uint64) { fmt.Fprintf(f, "%d>%d\n", from, to) })
	return fmt.Sprintf("%016x", f.Sum64())
}

// scaledOps returns sc with every phase's operation count multiplied by k.
func scaledOps(sc Scenario, k int) Scenario {
	sc.Phases = append([]Phase(nil), sc.Phases...)
	for i := range sc.Phases {
		sc.Phases[i].Ops *= k
	}
	return sc
}

// pinnedDigestSeeds are the seeds of the pinned generation digests: the
// first three trials of a seed-1 run under the 7919 trial stride.
var pinnedDigestSeeds = []int64{1, 7920, 15839}

// pinnedDigests maps "scenario/×scale/seed" to the digest of the history
// Run generated for it when the constants were recorded. Any change to RNG
// draws, candidate enumeration order, label contents or visibility-edge
// insertion order changes at least one of them. Regenerate (only for an
// intended change of generated histories) from the failure messages of
// TestRunDigestsPinned, which print every mismatching key with its new digest.
var pinnedDigests = map[string]string{
	"partition-heal/x1/1":        "bc10494f3271124d",
	"partition-heal/x1/7920":     "7a1fee1ffb89fe8b",
	"partition-heal/x1/15839":    "b9993913a32a4437",
	"partition-heal/x3/1":        "e0aa48357df8aa59",
	"partition-heal/x3/7920":     "fc0b4d6fe219dde4",
	"partition-heal/x3/15839":    "a17f05e35e19237c",
	"rolling-restart/x1/1":       "544286f018dcdb7a",
	"rolling-restart/x1/7920":    "cded3304534a6dc1",
	"rolling-restart/x1/15839":   "f5ebd9811b3324fb",
	"rolling-restart/x3/1":       "a62fe99d4c147b07",
	"rolling-restart/x3/7920":    "54e98da0582e1483",
	"rolling-restart/x3/15839":   "f7f8f00743ca01af",
	"hot-key/x1/1":               "d1bcbae5578128b7",
	"hot-key/x1/7920":            "244c98260f725af8",
	"hot-key/x1/15839":           "1353d3715229bacd",
	"hot-key/x3/1":               "13e88d614e6aff81",
	"hot-key/x3/7920":            "74e8b3368b62ae04",
	"hot-key/x3/15839":           "b0b18a1684ca5fce",
	"long-fork-attempt/x1/1":     "f1c7b2b2266bf882",
	"long-fork-attempt/x1/7920":  "c23a54f861c445e4",
	"long-fork-attempt/x1/15839": "72d63eb458659061",
	"long-fork-attempt/x3/1":     "f68beaaff1af6b23",
	"long-fork-attempt/x3/7920":  "fac969053f8573bd",
	"long-fork-attempt/x3/15839": "4a96ae4b87a7a404",
	"convergence-storm/x1/1":     "a79b8354d0043f22",
	"convergence-storm/x1/7920":  "67d9f9422656cee9",
	"convergence-storm/x1/15839": "f026ce13d20db793",
	"convergence-storm/x3/1":     "f90e5de50d5b2c94",
	"convergence-storm/x3/7920":  "38c4cfbe98d28b96",
	"convergence-storm/x3/15839": "6ebace76610e68a1",
}

// TestRunDigestsPinned pins generation byte for byte: every library
// scenario, at stock size and with every phase's Ops ×3, at three seeds,
// must produce exactly the history it produced when the digests were
// recorded.
func TestRunDigestsPinned(t *testing.T) {
	for _, base := range All() {
		for _, scale := range []int{1, 3} {
			sc := scaledOps(base, scale)
			for _, seed := range pinnedDigestSeeds {
				key := fmt.Sprintf("%s/x%d/%d", sc.Name, scale, seed)
				h, err := Run(sc, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := historyDigest(h)
				if want, ok := pinnedDigests[key]; !ok {
					t.Errorf("%q: %q, // not pinned", key, got)
				} else if got != want {
					t.Errorf("%q: %q, // pinned %s", key, got, want)
				}
			}
		}
	}
}
