package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"time"

	"multidiag/internal/core"
	"multidiag/internal/obs"
	"multidiag/internal/tester"
)

// engineDevices is the engine-b1000 device set: distinct 3-defect devices
// the closed loop cycles through. Every device gets a reference
// diagnosis before timing, so the set is sized for a steady mean at a
// bounded reference cost.
const engineDevices = 40

// engineStrata is makeDevices' candidates per kept device.
const engineStrata = 3

// reportTop is the ranked-candidate tail every report renders (mddiag's
// -top default).
const reportTop = 10

// elapsedRE matches the one timing field core.WriteReport prints.
var elapsedRE = regexp.MustCompile(`elapsed [^\n]*\n`)

// normalizeReport zeroes the elapsed time so reports compare by content.
func normalizeReport(s string) string { return elapsedRE.ReplaceAllString(s, "elapsed 0s\n") }

// setupFixture builds b1000 setupReps times, with calibration chunks
// between the builds, and returns the median wall time with the last build.
func setupFixture(cal *calibrator) (float64, *fixture, error) {
	var spans []interval
	var fx *fixture
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if fx, err = buildB1000(); err != nil {
			return 0, nil, err
		}
		spans = append(spans, interval{t0, time.Now()})
		cal.sample()
		cal.sample()
	}
	return cal.steal.medianSeconds(spans), fx, checkFixture(fx)
}

// runEngine is the engine-b1000 workload: one caller, closed loop, each
// device's datalog text → tester.ReadDatalog → core.Diagnose(Workers: 1)
// → core.WriteReport, which is mddiag's path without process start.
func runEngine(o *opts) (*result, error) {
	res := newResult()
	setupS, fx, err := setupFixture(o.cal)
	if err != nil {
		return nil, err
	}
	devs, err := makeDevices(fx, o.seed, engineDevices, engineStrata)
	if err != nil {
		return nil, err
	}
	// References, outside the timed region: a direct diagnosis of the
	// generated datalog (not the parsed text) at the default worker count.
	refs := make([]string, len(devs))
	acc := make([]float64, len(devs))
	for i, d := range devs {
		r, err := core.Diagnose(fx.c, fx.pats, d.log, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference diagnosis: %w", err)
		}
		r.Elapsed = 0
		var buf bytes.Buffer
		if err := core.WriteReport(&buf, fx.c, r, len(d.log.FailingPatterns()), reportTop); err != nil {
			return nil, err
		}
		refs[i] = buf.String()
		acc[i] = regionAccuracy(fx.c, d, r.MultipletNets())
	}
	res.e2e["region_accuracy"] = mean(acc)
	res.repeat["region_accuracy"] = mean(acc)

	runtime.GC() // leave set-up's garbage out of the timed region
	if !o.trace {
		ph := enginePhase(fx, devs, refs, o.seconds, nil, 0, o.cal, res)
		res.e2e["setup_s"] = setupS
		res.e2e["devices_per_s"] = float64(ph.devices) / ph.wall.Seconds()
		res.e2e["cpu_ms_per_device"] = ph.cpu
		res.e2e["latency_p50_ms"] = median(ph.lat)
		t := tailOf(ph.lat)
		res.e2e["latency_tail_ms"] = t.Value
		res.detail["latency_tail"] = t
		res.detail["latency_quantiles"] = quantiles(ph.lat)
		res.e2e["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		return res, nil
	}

	// Traced: an untraced half, then a traced half that gives each
	// diagnosis its own obs.Trace and reads the engine's phase spans and
	// counters from it. The traced half covers every device at least once
	// so the per-device counts are seed-determined.
	base := enginePhase(fx, devs, refs, o.seconds/2, nil, 0, o.cal, res)
	tr := enginePhase(fx, devs, refs, o.seconds/2, o.spans, len(devs), o.cal, res)
	st := o.spans.selfTimes()
	n := float64(tr.devices)
	perDev := func(name string) float64 { return ms(st[name]) / n }
	res.layer["tester.parse_ms"] = perDev("tester.parse")
	res.layer["fsim.goodsim_ms"] = perDev("fsim.goodsim")
	res.layer["fsim.cpt_ms"] = perDev("fsim.cpt")
	res.layer["fsim.score_ms"] = perDev("fsim.score")
	res.layer["core.render_ms"] = perDev("core.render")
	// The engine's phases are children of core.diagnose, so its self time
	// is what they leave: evidence, cover, refine, xcheck and ranking.
	res.layer["core.tail_ms"] = perDev("core.diagnose")
	res.layer["fsim.cpt_us_per_pattern"] = us(st["fsim.cpt"]) / float64(tr.patterns)
	res.layer["fsim.score_us_per_seed"] = us(st["fsim.score"]) / float64(tr.seeds)
	var sum engineCounts
	for _, c := range tr.counts {
		sum.seeds += c.seeds
		sum.stemFlips += c.stemFlips
		sum.coneEvals += c.coneEvals
	}
	for k, v := range map[string]float64{
		"core.seeds":                float64(sum.seeds),
		"cpt.stem_flips":            float64(sum.stemFlips),
		"fsim.cone_gate_word_evals": float64(sum.coneEvals),
	} {
		res.layer[k] = v / float64(len(devs))
		res.repeat[k] = v / float64(len(devs))
	}
	res.layer["bench.trace_overhead_frac"] = tr.cpu/base.cpu - 1
	res.detail["trace_devices"] = tr.devices
	return res, nil
}

// enginePhaseResult is what one measured closed loop did.
type enginePhaseResult struct {
	devices         int
	wall            time.Duration
	cpu             float64        // ms per device
	spans           []interval     // each device's parse, diagnosis and render
	lat             []float64      // spans less steal, ms
	patterns, seeds int64          // totals over the traced diagnoses
	counts          []engineCounts // per device, from its first traced visit
}

// engineCounts is what the engine's trace counted for one diagnosis.
type engineCounts struct {
	patterns, seeds, stemFlips, coneEvals int64
}

// enginePhases maps core.Diagnose's phase spans to the benchmark's layer
// spans: goodsim is fsim.NewFaultSim, extract is fsim.NewCPT plus
// CriticalForOutputs over the failing patterns, score is the cone-limited
// fault simulation of every seed with its fold.
var enginePhases = map[string]string{"goodsim": "fsim.goodsim", "extract": "fsim.cpt", "score": "fsim.score"}

// enginePhase cycles through devs for dur (and at least minDevices
// devices), checking every report against its reference afterwards. With
// a recorder, each diagnosis runs under its own obs.Trace, whose phase
// spans become children of the core.diagnose span. A calibration chunk
// follows each device; its time is left out of the phase's CPU and wall.
func enginePhase(fx *fixture, devs []*device, refs []string, dur time.Duration, rec *recorder, minDevices int, cal *calibrator, res *result) enginePhaseResult {
	var ph enginePhaseResult
	if rec != nil {
		ph.counts = make([]engineCounts, len(devs))
	}
	reports := make([]string, 0, 256)
	var buf bytes.Buffer
	cpu0, t0, calWall := cal.readCPU(), time.Now(), cal.wall
	deadline := t0.Add(dur)
	for i := 0; i < minDevices || time.Now().Before(deadline); i++ {
		if i > 0 {
			cal.sample()
		}
		d := devs[i%len(devs)]
		start := time.Now()
		root := rec.start("device", -1, i)
		sp := rec.start("tester.parse", root, i)
		log, err := tester.ReadDatalog(strings.NewReader(d.text))
		rec.end(sp)
		if err != nil {
			reports = append(reports, "parse: "+err.Error())
			continue
		}
		cfg := core.Config{Workers: 1}
		var epoch time.Time
		if rec != nil {
			epoch = time.Now()
			cfg.Trace = obs.New("perfbench")
		}
		sp = rec.start("core.diagnose", root, i)
		r, err := core.Diagnose(fx.c, fx.pats, log, cfg)
		rec.end(sp)
		if err != nil {
			reports = append(reports, "diagnose: "+err.Error())
			continue
		}
		if rec != nil {
			spans, _ := cfg.Trace.Records()
			for _, s := range spans {
				if name, ok := enginePhases[s.Name]; ok && s.Done {
					from := epoch.Add(s.Start)
					rec.add(name, sp, i, from, from.Add(s.Dur))
				}
			}
		}
		sp = rec.start("core.render", root, i)
		buf.Reset()
		err = core.WriteReport(&buf, fx.c, r, len(log.FailingPatterns()), reportTop)
		rec.end(sp)
		rec.end(root)
		ph.spans = append(ph.spans, interval{start, time.Now()})
		if err != nil {
			reports = append(reports, "render: "+err.Error())
			continue
		}
		reports = append(reports, buf.String())
		if rec != nil {
			reg := cfg.Trace.Registry()
			ec := engineCounts{
				patterns:  reg.Counter("core.failing_patterns").Value(),
				seeds:     reg.Counter("core.candidates_extracted").Value(),
				stemFlips: reg.Counter("cpt.stem_flips").Value(),
				coneEvals: reg.Counter("fsim.cone_gate_word_evals").Value(),
			}
			ph.patterns += ec.patterns
			ph.seeds += ec.seeds
			if ec.seeds != int64(r.CandidatesExtracted) {
				reports[len(reports)-1] = fmt.Sprintf("trace counted %d seeds, the result says %d", ec.seeds, r.CandidatesExtracted)
			}
			if prev := &ph.counts[i%len(devs)]; i < len(devs) {
				*prev = ec
			} else if *prev != ec {
				reports[len(reports)-1] = fmt.Sprintf("engine counts %+v differ from an earlier diagnosis of this device %+v", ec, *prev)
			}
		}
	}
	end, calWall := time.Now(), cal.wall-calWall
	ph.devices = len(reports)
	ph.cpu = cpu0.msPer(cal.readCPU(), ph.devices)
	ph.wall = cal.steal.unstolen(interval{t0, end}) - calWall
	ph.lat = cal.steal.unstolenMS(ph.spans)

	for i, rep := range reports {
		res.attempted++
		if normalizeReport(rep) != refs[i%len(devs)] {
			res.fail("engine-b1000 device %d: report differs from the reference diagnosis: %.200q", i%len(devs), rep)
		}
	}
	return ph
}
