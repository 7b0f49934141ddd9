package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuNow returns the calling OS thread's CPU time. The benchmark times with
// it rather than the wall clock: on a shared virtual machine the host steals
// the vCPU for stretches of milliseconds, at times for a third of the run,
// and wall-clock throughput then fell threefold and p99 tenfold while the
// code did the same work; the thread's CPU clock does not count stolen time.
// Checks run sequentially on the measuring goroutine, which is locked to its
// thread, so the CPU time of a check is its latency on an unloaded host.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockOverhead is the median CPU time of an empty cpuNow interval, about
// half a microsecond on a virtual machine (the call is a system call, not a
// vDSO read). Check latencies are corrected by it; set once per run by
// measureClockOverhead, before anything is timed.
var clockOverhead time.Duration

func measureClockOverhead() {
	ds := make([]float64, 1001)
	for i := range ds {
		t0 := cpuNow()
		ds[i] = float64(cpuNow() - t0)
	}
	clockOverhead = time.Duration(median(ds))
}

// latency is the corrected CPU time of a timed call that ran between the
// clock readings t0 and t1.
func latency(t0, t1 time.Duration) time.Duration {
	return max(t1-t0-clockOverhead, 0)
}
