package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be reported as that percentile.
const minBeyond = 10

// sortedIn returns the durations in the given unit, ascending.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return sortFloats(out)
}

func sortFloats(s []float64) []float64 {
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// quantile returns the nearest-rank q-quantile of sorted, 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// tail returns the q-quantile of sorted when at least minBeyond samples
// lie above it; otherwise the highest quantile that has minBeyond
// samples above it. It also returns the quantile actually reported.
// With minBeyond or fewer samples it reports the median.
func tail(sorted []float64, q float64) (value, reportedQ float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := rank(n, q)
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	if i < 0 {
		i = rank(n, 0.5)
	}
	return sorted[i], float64(i+1) / float64(n)
}

// median of unsorted values, 0 when empty.
func median(vs []float64) float64 {
	return quantile(sortFloats(append([]float64(nil), vs...)), 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	mallocs    uint64 // heap objects allocated
	allocBytes uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs, allocBytes: m.TotalAlloc}
}

// since is the usage between u0 and u.
func (u usage) since(u0 usage) window {
	return window{secs: u.wall.Sub(u0.wall).Seconds(), cpu: u.cpu - u0.cpu,
		mallocs: u.mallocs - u0.mallocs, allocBytes: u.allocBytes - u0.allocBytes}
}

// splitmix is a SplitMix64 rand.Source: a few bytes of state per
// stream, so every placement can draw from its own seeded stream.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// stream derives an independent source from a seed and stream indices.
func stream(seed int64, ids ...uint64) *splitmix {
	s := &splitmix{state: uint64(seed)}
	for _, id := range ids {
		s.state ^= (id + 1) * 0xD1342543DE82EF95
		s.Uint64()
	}
	return s
}
