package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// an ascending slice: the smallest sample with at least q·n samples at
// or below it. An empty slice yields NaN so a phase that completed
// nothing cannot pass for a fast one.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// geomean returns the geometric mean of vs, NaN when there are none. A
// change of x % in every sample moves it by x %; unlike the median it
// moves smoothly when a bimodal distribution's split shifts, and unlike
// the arithmetic mean no tail or slow mode dominates it.
func geomean(vs []int64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, v := range vs {
		logs += math.Log(float64(v))
	}
	return math.Exp(logs / float64(len(vs)))
}

// median returns the middle of vs (mean of the middle two when even);
// vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// usage is a reading of the process-wide cost counters the runtime.*
// metrics are deltas of.
type usage struct {
	cpuNanos int64 // user + system, getrusage(RUSAGE_SELF)
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNanos: ru.Utime.Nano() + ru.Stime.Nano(),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
	}
}

func (u usage) sub(prev usage) usage {
	return usage{
		cpuNanos: u.cpuNanos - prev.cpuNanos,
		alloc:    u.alloc - prev.alloc,
		mallocs:  u.mallocs - prev.mallocs,
		gcCycles: u.gcCycles - prev.gcCycles,
	}
}

func (u usage) add(d usage) usage {
	return usage{
		cpuNanos: u.cpuNanos + d.cpuNanos,
		alloc:    u.alloc + d.alloc,
		mallocs:  u.mallocs + d.mallocs,
		gcCycles: u.gcCycles + d.gcCycles,
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM) from
// /proc; NaN where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
