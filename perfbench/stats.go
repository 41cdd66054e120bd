package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, in
// tenths of a percent, highest first.
var tailLadder = []int{999, 990, 950, 900, 800, 750, 500}

// tail is a reported tail latency with the percentile it was taken at.
type tail struct {
	Pct     float64 `json:"pct"`     // 0 means the maximum (too few samples for any ladder step)
	Value   float64 `json:"value"`   // in the samples' unit
	Samples int     `json:"samples"` // sample count
	Beyond  int     `json:"beyond"`  // samples strictly above the percentile's rank
}

// nearestRank returns the 1-based nearest-rank index of percentile
// pt (tenths of a percent) among n samples, in integer arithmetic so
// p90 of 100 samples is rank 90, not 91.
func nearestRank(pt, n int) int {
	k := (pt*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tailOf picks the highest ladder percentile that leaves at least
// minBeyond samples above its rank and returns the value there.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	for _, pt := range tailLadder {
		k := nearestRank(pt, n)
		if n-k >= minBeyond {
			return tail{Pct: float64(pt) / 10, Value: s[k-1], Samples: n, Beyond: n - k}
		}
	}
	return tail{Value: s[n-1], Samples: n}
}

// quantiles summarizes a latency sample for the detail line.
func quantiles(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, pt := range []int{500, 900, 990, 999, 1000} {
		out[fmt.Sprintf("p%g", float64(pt)/10)] = percentile(xs, pt)
	}
	return out
}

// percentile returns the nearest-rank percentile pt (tenths of a percent).
func percentile(xs []float64, pt int) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(pt, len(s))-1]
}

// median is the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuClock is process CPU time (user + system) from getrusage.
type cpuClock struct {
	user, sys time.Duration
}

func readCPU() cpuClock {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return cpuClock{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// msPer divides the CPU spent between two readings by n operations.
func (before cpuClock) msPer(after cpuClock, n int) float64 {
	if n <= 0 {
		return math.NaN()
	}
	spent := (after.user - before.user) + (after.sys - before.sys)
	return float64(spent) / float64(time.Millisecond) / float64(n)
}

// peakRSSMB is getrusage's maxrss (KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit fit the charset the
// result format allows.
func validMetric(name, unit string) bool {
	return metricNameRE.MatchString(name) && unitRE.MatchString(unit)
}
