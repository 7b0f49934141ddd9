package scenario

import "testing"

// BenchmarkScenarioRun measures history generation alone: one Run of each
// library scenario with every phase's Ops ×3 (the end-to-end benchmark's
// scale), seeds advancing by the 7919 trial stride. Ungated: it tracks the
// runtime's causal-delivery bookkeeping and the engine's scratch reuse.
func BenchmarkScenarioRun(b *testing.B) {
	for _, base := range All() {
		sc := scaledOps(base, 3)
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc, 1+int64(i%64)*7919); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
