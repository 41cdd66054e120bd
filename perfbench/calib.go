package main

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// On a shared VM the same work takes a varying time: the CPU time of a
// fixed piece of work drifts by a fifth from minute to minute with the
// neighbours' load, and the hypervisor steals a varying share of the
// vCPUs' time, in bursts, which stretches wall figures. So a run
// measures both as it goes and reports its end-to-end times as they
// would read on a reference host without steal:
//
//   - A fixed, allocation-free calibration chunk runs between set-ups and
//     between operations, never while the program works, timed by its
//     own thread's CPU clock. Times are scaled by calRefMS over the median
//     chunk CPU; the chunk's time is left out of the workload's figures.
//   - A stealMeter reads /proc/stat every stealTick; each timed wall
//     interval loses the share stolen between the readings around it.
//
// A change to the program moves its own figures and not the chunk's or
// the steal, so it still shows; a change in the host moves both and
// cancels, to first order. The detail line prints the scale and steal.

// calRefMS is the chunk's CPU time on the reference host, a shared
// 2-vCPU Intel Xeon VM with Go 1.24, where a chunk run between a
// workload's operations measured 2.7–3.5 ms.
const calRefMS = 3.2

const (
	calTextBytes = 64 << 10
	calTableLen  = 1 << 17 // 1 MiB of uint64
	calWordsLen  = 4 << 10
)

// calibrator runs and times calibration chunks. One goroutine calls
// sample at a time.
type calibrator struct {
	text  []byte   // decimal numbers and separators, scanned like a record
	table []uint64 // read at scattered indices: cache and memory latency
	words []uint64 // word-parallel logic, like gate evaluation

	samples []float64     // CPU ms of each chunk
	cpu     time.Duration // CPU of every chunk so far
	wall    time.Duration // wall time of every chunk so far
	sink    uint64        // keeps the chunk's results live

	steal *stealMeter // nil until start
}

func newCalibrator() *calibrator {
	c := &calibrator{
		text:  make([]byte, calTextBytes),
		table: make([]uint64, calTableLen),
		words: make([]uint64, calWordsLen),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.text {
		if i%7 == 6 {
			c.text[i] = ','
		} else {
			c.text[i] = '0' + byte(next()%10)
		}
	}
	for i := range c.table {
		c.table[i] = next()
	}
	for i := range c.words {
		c.words[i] = next()
	}
	return c
}

// start begins measuring steal; stop ends it.
func (c *calibrator) start() { c.steal = startStealMeter() }
func (c *calibrator) stop()  { c.steal.close() }

// chunk is the calibration work. Word logic over an L1-resident array
// takes about half of it: of the parts tried, its CPU time followed the
// workloads' own drift most closely. Byte scanning, hashing and reads of
// a table the workload has evicted from cache take the rest.
func (c *calibrator) chunk() uint64 {
	var acc uint64
	for r := 0; r < 4; r++ {
		h := sha256.Sum256(c.text)
		acc += binary.LittleEndian.Uint64(h[:])
	}
	for r := 0; r < 4; r++ {
		var n uint64
		for _, b := range c.text {
			if b == ',' {
				acc += n
				n = 0
				continue
			}
			n = n*10 + uint64(b-'0')
		}
	}
	const mask = calTableLen - 1
	idx := acc
	for i := uint64(0); i < 8000; i++ {
		v := c.table[(idx^i*0x9e3779b97f4a7c15)&mask]
		idx += v >> 3
		acc ^= v
	}
	w := c.words
	for r := 0; r < 96; r++ {
		for i := 2; i < len(w)-1; i++ {
			w[i] = (w[i-1] & w[i+1]) ^ (w[i] | ^w[i-2])
		}
	}
	return acc + w[len(w)/2]
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID. getrusage's
// RUSAGE_THREAD is no substitute: it moves in whole scheduler ticks.
const clockThreadCPU = 3

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// sample runs one chunk on a locked thread and records its CPU time.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, t0 := time.Now(), threadCPU()
	c.sink += c.chunk()
	spent := threadCPU() - t0
	c.samples = append(c.samples, ms(spent))
	c.cpu += spent
	c.wall += time.Since(w0)
}

// readCPU is the process CPU clock without the calibration chunks.
func (c *calibrator) readCPU() cpuClock {
	t := readCPU()
	t.user -= c.cpu
	return t
}

// hostCPU is the VM's CPU time from /proc/stat, in clock ticks: busy
// (user, nice, system, irq, softirq) and steal, the time the hypervisor
// ran something else while a vCPU had work.
type hostCPU struct{ busy, steal uint64 }

// readHostCPU reads /proc/stat's aggregate cpu line; without it (not
// Linux, or hidden) it reads zero and the steal share is 0.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealFrac is the share of the CPU time the VM's vCPUs wanted between
// two readings that the hypervisor took.
func (a hostCPU) stealFrac(b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// stealTick is how often a stealMeter reads /proc/stat. Steal comes in
// bursts of a few seconds, so a run-wide share over- and under-corrects;
// /proc/stat counts in 10 ms ticks, so a much shorter window reads too
// few of them.
const stealTick = 250 * time.Millisecond

// stealMeter reads /proc/stat every stealTick while a run lasts, so an
// interval's steal share can be read after the fact.
type stealMeter struct {
	mu      sync.Mutex
	at      []time.Time
	cpu     []hostCPU
	running bool
	stop    chan struct{}
	done    chan struct{}
}

func startStealMeter() *stealMeter {
	m := &stealMeter{running: true, stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMeter) sample() {
	h := readHostCPU()
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.cpu = append(m.cpu, h)
	m.mu.Unlock()
}

// close stops the sampling goroutine and waits for it.
func (m *stealMeter) close() {
	close(m.stop)
	<-m.done
	m.sample()
	m.mu.Lock()
	m.running = false
	m.mu.Unlock()
}

// frac is the steal share from the last reading at or before a to the
// first at or after b, waiting for that reading if it is not taken yet.
// Callers ask after the interval, so the window spans at least one tick.
func (m *stealMeter) frac(a, b time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.running && !m.at[len(m.at)-1].After(b) {
		m.mu.Unlock()
		time.Sleep(stealTick / 8)
		m.mu.Lock()
	}
	i := sort.Search(len(m.at), func(k int) bool { return m.at[k].After(a) }) - 1
	j := sort.Search(len(m.at), func(k int) bool { return !m.at[k].Before(b) })
	if i < 0 {
		i = 0
	}
	if j >= len(m.at) {
		j = len(m.at) - 1
	}
	return m.cpu[i].stealFrac(m.cpu[j])
}

// interval is a timed stretch of wall time.
type interval struct{ from, to time.Time }

// unstolen is an interval's wall time less the share the hypervisor stole
// over it: what it would have lasted on a host without steal, to first
// order.
func (m *stealMeter) unstolen(iv interval) time.Duration {
	return time.Duration(float64(iv.to.Sub(iv.from)) * (1 - m.frac(iv.from, iv.to)))
}

// unstolenMS is unstolen of each interval, in milliseconds.
func (m *stealMeter) unstolenMS(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = ms(m.unstolen(iv))
	}
	return out
}

// medianSeconds is the median unstolen interval, in seconds.
func (m *stealMeter) medianSeconds(ivs []interval) float64 {
	return median(m.unstolenMS(ivs)) / 1000
}

// scale is the median chunk CPU over calRefMS: how much slower than the
// reference host this host ran during the run.
func (c *calibrator) scale() float64 { return median(c.samples) / calRefMS }
