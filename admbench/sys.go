package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// collect runs two garbage collections, so neither the garbage of the
// previous round nor that of the set-up is charged to what follows.
func collect() {
	runtime.GC()
	runtime.GC()
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// The runtime/metrics read over a timed replay.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

// runtimeDelta is the change of the runtime metrics over an interval.
type runtimeDelta struct {
	allocs, allocBytes uint64
	gcCPU, mutexWait   float64 // seconds
	sched              *metrics.Float64Histogram
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var d runtimeDelta
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			if x.Name == runtimeSamples[0] {
				d.allocs = x.Value.Uint64()
			} else {
				d.allocBytes = x.Value.Uint64()
			}
		case metrics.KindFloat64:
			if x.Name == runtimeSamples[2] {
				d.gcCPU = x.Value.Float64()
			} else {
				d.mutexWait = x.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			h := x.Value.Float64Histogram()
			d.sched = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return d
}

// sub returns d - o.
func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	out := runtimeDelta{
		allocs:     d.allocs - o.allocs,
		allocBytes: d.allocBytes - o.allocBytes,
		gcCPU:      d.gcCPU - o.gcCPU,
		mutexWait:  d.mutexWait - o.mutexWait,
	}
	if d.sched != nil && o.sched != nil && len(d.sched.Counts) == len(o.sched.Counts) {
		h := &metrics.Float64Histogram{Buckets: d.sched.Buckets, Counts: make([]uint64, len(d.sched.Counts))}
		for i := range h.Counts {
			h.Counts[i] = d.sched.Counts[i] - o.sched.Counts[i]
		}
		out.sched = h
	}
	return out
}

// schedP99 returns the 99th percentile of the scheduling latencies in
// the interval: the upper edge of the bucket holding it (capped at the
// last finite edge).
func (d runtimeDelta) schedP99() time.Duration {
	h := d.sched
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range h.Counts {
		acc += c
		if acc >= want {
			edge := h.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
