package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{19, 0, 19, 0}, // too few for p50: the maximum, labelled 0
		{20, 50, 10, 10},
		{99, 80, 80, 19},
		{100, 90, 90, 10},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{999, 95, 950, 49},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d: got %+v, want p%v=%v with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
		if got.Pct > 0 && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, got.Beyond, got.Pct)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if p := percentile(seq(100), 900); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
}

// An open loop charges each request from its due time: one stalled call
// holding the only connection makes the requests due behind it late, and
// their latency includes that wait.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const gap, stall = 20 * time.Millisecond, 200 * time.Millisecond
	offsets := make([]time.Duration, 6)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	replies := openLoop(time.Now(), offsets, 1, func(i int) (int, []byte, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}, nil)
	for i, rp := range replies[1:] {
		k := i + 1
		lat, late := rp.done.Sub(rp.due), rp.sent.Sub(rp.due)
		if floor := stall - time.Duration(k)*gap; lat < floor || late < floor {
			t.Errorf("request %d: latency %v, late %v; the stall should charge at least %v", k, lat, late, floor)
		}
	}
	// Without the stall the same schedule is on time.
	replies = openLoop(time.Now(), offsets, 1, func(int) (int, []byte, error) { return 200, nil, nil }, nil)
	for i, rp := range replies {
		if lat := rp.done.Sub(rp.due); lat > stall/2 {
			t.Errorf("request %d took %v with no stall", i, lat)
		}
	}
}

func TestCPUPerDeviceAccounting(t *testing.T) {
	before := cpuClock{user: 1 * time.Second, sys: 500 * time.Millisecond}
	after := cpuClock{user: 3 * time.Second, sys: 1 * time.Second}
	if got := before.msPer(after, 10); got != 250 {
		t.Errorf("2.5 s CPU over 10 devices = %v ms, want 250", got)
	}
	if got := before.msPer(after, 0); !math.IsNaN(got) {
		t.Errorf("zero devices gave %v, want NaN", got)
	}

	// A live reading charges at least the CPU this goroutine burns.
	c0 := readCPU()
	burn := time.Now()
	x := 0
	for time.Since(burn) < 60*time.Millisecond {
		x++
	}
	if got := c0.msPer(readCPU(), 1); got < 40 {
		t.Errorf("burned ~60 ms of CPU, measured %v ms (x=%d)", got, x)
	}
}

// A host running at twice the reference chunk cost halves the time
// metrics and doubles the rates; a metric the workload marks unscaled,
// and every metric outside hostScaled, reads as measured.
func TestScaleToReference(t *testing.T) {
	cal := &calibrator{samples: []float64{2 * calRefMS, 2 * calRefMS, 9 * calRefMS}}
	res := newResult()
	res.e2e["cpu_ms_per_device"] = 300
	res.e2e["devices_per_s"] = 5
	res.e2e["latency_p50_ms"] = 80
	res.e2e["peak_rss_mb"] = 20
	res.unscaled["latency_p50_ms"] = true
	scaleToReference(res, cal)
	for name, want := range map[string]float64{"cpu_ms_per_device": 150, "devices_per_s": 10, "latency_p50_ms": 80, "peak_rss_mb": 20} {
		if got := res.e2e[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := res.detail["before_speed_scale"].(map[string]float64)["cpu_ms_per_device"]; got != 300 {
		t.Errorf("detail keeps cpu_ms_per_device %v, want the measured 300", got)
	}
}

// An interval's steal share comes from the readings that enclose it, so
// a burst of steal charges the intervals inside it and no others.
func TestStealMeterChargesTheBurst(t *testing.T) {
	t0 := time.Now()
	sec := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Second) }
	m := &stealMeter{
		at: []time.Time{sec(0), sec(1), sec(2), sec(3)},
		// Second 1–2 is half steal; the others have none.
		cpu: []hostCPU{{0, 0}, {200, 0}, {300, 100}, {500, 100}},
	}
	if got := m.frac(sec(0), sec(1)); got != 0 {
		t.Errorf("steal before the burst %v, want 0", got)
	}
	if got := m.unstolen(interval{sec(1).Add(100 * time.Millisecond), sec(1).Add(500 * time.Millisecond)}); got != 200*time.Millisecond {
		t.Errorf("400 ms inside the burst counts %v, want 200ms", got)
	}
	if got := m.frac(sec(0), sec(3)); got != 100.0/600 {
		t.Errorf("steal over the whole span %v, want 1/6", got)
	}
}

// The calibration chunk costs CPU, and the calibrator's process clock
// leaves that CPU out.
func TestCalibratorExcludesItsOwnCPU(t *testing.T) {
	cal := newCalibrator()
	c0, p0 := cal.readCPU(), readCPU()
	for i := 0; i < 10; i++ {
		cal.sample()
	}
	chunks := p0.msPer(readCPU(), 1)
	if len(cal.samples) != 10 || median(cal.samples) <= 0 {
		t.Fatalf("samples %v", cal.samples)
	}
	if left := c0.msPer(cal.readCPU(), 1); left > chunks/2 {
		t.Errorf("process CPU over 10 chunks %v ms, %v ms of it left after excluding them", chunks, left)
	}
}

func TestMetricNamesFitCharset(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validMetric(d.name, d.unit) {
			t.Errorf("metric %q unit %q outside the allowed charset", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range [][2]string{{"_lead", "ms"}, {"has space", "ms"}, {"x", "m s"}, {"x", "a-unit-longer-than-16"}, {"", "ms"}} {
		if validMetric(bad[0], bad[1]) {
			t.Errorf("accepted name %q unit %q", bad[0], bad[1])
		}
	}
}

// BENCHMARK.json at the repository root must list exactly what the
// program prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{}
	ms := time.Millisecond
	r.spans = []span{
		{Name: "device", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "parse", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "diagnose", Parent: 0, Start: 30 * ms, End: 90 * ms},
		{Name: "overlap", Parent: 0, Start: 80 * ms, End: 120 * ms}, // clipped at the parent's end
	}
	st := r.selfTimes()
	if got := st["device"]; got != 10*ms {
		t.Errorf("device self time %v, want 10ms", got)
	}
	if got := st["diagnose"]; got != 60*ms {
		t.Errorf("diagnose self time %v, want 60ms", got)
	}
}

func TestNormalizeReportZeroesElapsed(t *testing.T) {
	in := "evidence: 3 failing bits\nextracted 9 effect-cause candidates; multiplet size 1; elapsed 123.4ms\n#1 G1 sa0\n"
	want := "evidence: 3 failing bits\nextracted 9 effect-cause candidates; multiplet size 1; elapsed 0s\n#1 G1 sa0\n"
	if got := normalizeReport(in); got != want {
		t.Errorf("got %q", got)
	}
}
