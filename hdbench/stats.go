package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Seed streams: every generated input derives from the workload seed
// through derive, with a distinct first part per kind of input.
const (
	streamPass uint64 = iota + 1
	streamKind
	streamVariant
	streamArrival
	streamResident
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive hashes a seed and a path of integers into an independent seed.
func derive(seed uint64, path ...uint64) uint64 {
	h := splitmix64(seed)
	for _, p := range path {
		h = splitmix64(h ^ p)
	}
	return h
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by nearest rank; it sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// processCPU is the user+sys CPU time of every thread of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU is the CPU time of the calling OS thread; callers lock their
// goroutine to its thread so successive readings are comparable.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// memPoint is a runtime allocation reading taken at a phase boundary.
type memPoint struct {
	allocBytes uint64
	numGC      uint32
}

func readMem() memPoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memPoint{allocBytes: ms.TotalAlloc, numGC: ms.NumGC}
}

// phase brackets a measured interval: wall, process CPU and allocations.
type phase struct {
	wall0 time.Time
	cpu0  time.Duration
	mem0  memPoint
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func startPhase() *phase {
	return &phase{mem0: readMem(), cpu0: processCPU(), wall0: time.Now()}
}

func (p *phase) stop() {
	p.wall = time.Since(p.wall0)
	p.cpu = processCPU() - p.cpu0
	m := readMem()
	p.alloc = m.allocBytes - p.mem0.allocBytes
	p.gcs = m.numGC - p.mem0.numGC
}

// perOp fills the shared per-layer runtime metrics for ops operations.
func (p *phase) perOp(r *result, ops float64) {
	r.layer["process.cpu_us_per_op"] = safeDiv(float64(p.cpu.Microseconds()), ops)
	r.layer["runtime.alloc_kb_per_op"] = safeDiv(float64(p.alloc)/1024, ops)
	r.layer["runtime.gc_per_1k_ops"] = safeDiv(float64(p.gcs)*1000, ops)
}
