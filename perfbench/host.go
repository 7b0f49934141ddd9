package main

import "time"

// Time-based end-to-end metrics are normalised to the host's speed during the
// run. On a shared virtual machine the host's speed drifts by a tenth and
// more over minutes, as neighbours come and go, even in CPU time (see cpuNow),
// so raw times spread more between runs than any code change worth
// measuring. Between histories, at most every probeEvery, the run times a
// fixed xorshift loop that never changes; the median of those probes over the
// run, against probeNominalUS, is the host factor by which times are divided
// and rates multiplied. A change to the checker does not move the probe, so
// the normalised metrics move with the code and not with the host.

const (
	// probeIters is the probe loop's length: about 0.7 ms on the machine the
	// benchmark was sized on.
	probeIters = 1 << 18
	// probeNominalUS is the probe's nominal time; a host on which the probe
	// takes this long reports raw times.
	probeNominalUS = 690.0
	probeEvery     = 100 * time.Millisecond
)

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibLoop times iters rounds of a fixed xorshift loop, in microseconds of
// thread CPU time.
func calibLoop(iters int) float64 {
	t0 := cpuNow()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64((cpuNow() - t0).Nanoseconds()) / 1e3
}

// calibrate times the calibration loop at 2^24 rounds five times and returns
// the median in microseconds. The loop never changes, so its time compares
// hosts, not commits; it is reported as host.calib_us and never gated.
func calibrate() float64 {
	xs := make([]float64, 5)
	for r := range xs {
		xs[r] = calibLoop(1 << 24)
	}
	return median(xs)
}

// hostProbe samples the host's speed during a run.
type hostProbe struct {
	last    time.Time
	samples []float64
}

// maybe runs the probe loop when probeEvery has passed since the last probe.
func (p *hostProbe) maybe() {
	if now := time.Now(); now.Sub(p.last) >= probeEvery {
		p.samples = append(p.samples, calibLoop(probeIters))
		p.last = time.Now()
	}
}

// factor is the run's host factor: the median probe time over the nominal
// one (1 without samples).
func (p *hostProbe) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return median(p.samples) / probeNominalUS
}
