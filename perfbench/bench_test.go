package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// tinyConfig is a run over the first trials histories only, with the
// shortest set-up that still exercises every step.
func tinyConfig(seed int64, trials int) config {
	return config{seed: seed, maxTrials: trials, rssWindow: trials, warmup: 1, setups: 2}
}

// benchmarkJSON is the subset of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return b
}

// runTiny runs a tiny run of the workload and returns its report and the
// parsed JSON result line.
func runTiny(t *testing.T, name string, seed int64, trials int, traced bool) (*report, resultOut) {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(seed, trials)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rep *report
	if traced {
		rep, err = runTraced(w, cfg)
	} else {
		rep, err = runUntraced(w, cfg, cpuNow())
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", name, err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < trials {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
			name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
	}
	return rep, res
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames)
	}
}

// TestTinyRunReportsEveryMetric runs every workload untraced and traced at
// the default seed, where each verdict is compared with the committed ones,
// and checks that each run prints every metric BENCHMARK.json names, with its
// unit, and fails no check.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			_, res := runTiny(t, name, defaultSeed, 8, traced)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && res.Metrics["pass_ratio"].Value != 1 {
				t.Errorf("%s: pass_ratio %v, want 1 (failed_ratio 0)", name, res.Metrics["pass_ratio"].Value)
			}
		}
	}
}

// TestSameSeedSameInputsAndVerdicts checks that a seed fixes the histories
// (by digest) and the verdicts of a run.
func TestSameSeedSameInputsAndVerdicts(t *testing.T) {
	const seed, trials = 42, 6
	for _, name := range workloadNames {
		var digests, verdicts [2][]string
		for r := range 2 {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range trials {
				_, h, err := w.generate(seed, i)
				if err != nil {
					t.Fatal(err)
				}
				digests[r] = append(digests[r], digest(h))
			}
			rep, _ := runTiny(t, name, seed, trials, false)
			for _, rec := range rep.recs {
				verdicts[r] = append(verdicts[r], verdictLetters(rec.verdicts))
			}
		}
		if strings.Join(digests[0], " ") != strings.Join(digests[1], " ") {
			t.Errorf("%s: digests differ across runs:\n%v\n%v", name, digests[0], digests[1])
		}
		if strings.Join(verdicts[0], " ") != strings.Join(verdicts[1], " ") {
			t.Errorf("%s: verdicts differ across runs:\n%v\n%v", name, verdicts[0], verdicts[1])
		}
	}
}

// TestBypass checks the workloads' bypass properties: designated never
// reaches the search, and refute does no strategy or rewriting work.
func TestBypass(t *testing.T) {
	rep, _ := runTiny(t, "designated", defaultSeed, 8, true)
	if n := rep.metrics["search.nodes"]; n != 0 {
		t.Errorf("designated: search.nodes %v, want 0", n)
	}
	if n := rep.metrics["strategy.tries"]; n == 0 {
		t.Errorf("designated: strategy.tries 0, want the strategies to run")
	}

	rep, _ = runTiny(t, "refute", defaultSeed, 8, true)
	if n := rep.metrics["strategy.tries"]; n != 0 {
		t.Errorf("refute: strategy.tries %v, want 0", n)
	}
	if n := rep.metrics["search.nodes"]; n == 0 {
		t.Errorf("refute: search.nodes 0, want the search to run")
	}
	// The nil rewriting aliases the history: a wrapper allocation and an
	// acyclicity test, against a search of hundreds of nodes.
	if r, s := rep.metrics["rewrite.us"], rep.metrics["search.us"]; r > 0.02*s {
		t.Errorf("refute: rewrite.us %v is more than 2%% of search.us %v", r, s)
	}
	if a := rep.metrics["rewrite.allocs"]; a > 2 {
		t.Errorf("refute: rewrite.allocs %v, want at most the alias wrapper", a)
	}
}

func TestCommittedVerdictsParse(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := newOracle(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.expected) == 0 {
			t.Errorf("%s: no committed verdicts", name)
		}
		for i, e := range o.expected {
			if len(e.digest) != 16 || strings.Trim(e.verdicts, "VIU") != "" {
				t.Errorf("%s trial %d: malformed entry %+v", name, i, e)
			}
		}
	}
}
