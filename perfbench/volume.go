package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"multidiag/internal/core"
	"multidiag/internal/obs"
	"multidiag/internal/volume"
)

const (
	// volumeDistinct is how many distinct syndromes the stream repeats;
	// set-up diagnoses each once to prime the fingerprint cache.
	volumeDistinct = 24
	// volumeStrata is makeDevices' candidates per kept device: record cost
	// follows a device's failing bits, whose spread is wide.
	volumeStrata = 16
	// One ingest request (one Ingester.Run) carries every distinct
	// syndrome volumeCopies times, shuffled, so requests cost the same and
	// their latency spread is the system's, not the mix's. The timed loop
	// cycles through volumeRequests such requests.
	volumeCopies   = 10
	volumeBatch    = volumeDistinct * volumeCopies
	volumeRequests = 17
	// The output check keeps every volumeSampleEvery-th report line from a
	// seeded offset, at most volumeSamples of them.
	volumeSampleEvery = 389
	volumeSamples     = 256
	volumeSites       = 4
)

// volumeInput is the generated stream.
type volumeInput struct {
	devs    []*device
	lines   [][]byte // JSONL records, one per pool slot
	devOf   []int    // pool slot → device
	refs    [][]byte // per device: canonical report of a direct core.Diagnose
	records []volume.Record
}

func makeVolumeInput(fx *fixture, seed int64) (*volumeInput, error) {
	devs, err := makeDevices(fx, seed, volumeDistinct, volumeStrata)
	if err != nil {
		return nil, err
	}
	in := &volumeInput{devs: devs}
	// Slots 0..len(devs)-1 hold each device once: they are also the
	// priming stream.
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var order []int
	for b := 0; b < volumeRequests; b++ {
		req := make([]int, volumeBatch)
		for i := range req {
			req[i] = i % len(devs)
		}
		rest := req
		if b == 0 {
			rest = req[len(devs):]
		}
		r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		order = append(order, req...)
	}
	for i, d := range order {
		rec := volume.Record{
			DeviceID: fmt.Sprintf("dev-%06d", i),
			Site:     fmt.Sprintf("site-%d", r.Intn(volumeSites)),
			Workload: workloadName,
		}
		for _, p := range devs[d].log.FailingPatterns() {
			rec.Fails = append(rec.Fails, volume.PatternFails{Pattern: p, POs: devs[d].log.Fails[p].Members()})
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			return nil, err
		}
		in.lines = append(in.lines, append(line, '\n'))
		in.devOf = append(in.devOf, d)
		in.records = append(in.records, rec)
	}
	for _, d := range devs {
		res, err := core.Diagnose(fx.c, fx.pats, d.log, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference diagnosis: %w", err)
		}
		b, err := volume.BuildReport(workloadName, fx.c, d.log, res, reportTop).Encode()
		if err != nil {
			return nil, err
		}
		in.refs = append(in.refs, b)
	}
	return in, nil
}

// reportSink receives the ingester's in-order report lines and keeps a
// seeded sample of them for the output check.
type reportSink struct {
	lines   int
	offset  int
	samples map[int][]byte // by line ordinal since the phase began
}

func (s *reportSink) Write(p []byte) (int, error) {
	if s.lines%volumeSampleEvery == s.offset && len(s.samples) < volumeSamples {
		s.samples[s.lines] = append([]byte(nil), p...)
	}
	s.lines++
	return len(p), nil
}

// switchWriter forwards to a writer the caller replaces between runs.
type switchWriter struct{ w io.Writer }

func (s *switchWriter) Write(p []byte) (int, error) { return s.w.Write(p) }

// volumeStats reads the ingester's dedupe counters.
type volumeStats struct{ hits, misses, diagnosed int64 }

func readVolumeStats(reg *obs.Registry) volumeStats {
	return volumeStats{
		hits:      reg.Counter("volume.cache_hits").Value(),
		misses:    reg.Counter("volume.cache_misses").Value(),
		diagnosed: reg.Counter("volume.diagnosed").Value(),
	}
}

// volumePhaseResult is one timed closed loop of ingest requests.
type volumePhaseResult struct {
	records int
	wall    time.Duration
	cpu     float64 // ms per record
	lat     []float64
	runs    []interval // each request
	delta   volumeStats
}

// runVolume is the volume-warm workload: mdvol's engine mount fed a
// closed-loop JSONL stream whose syndromes set-up already diagnosed, so
// the timed region is the repeat path only.
func runVolume(o *opts) (*result, error) {
	res := newResult()
	gen, err := buildB1000()
	if err != nil {
		return nil, err
	}
	if err := checkFixture(gen); err != nil {
		return nil, err
	}
	in, err := makeVolumeInput(gen, o.seed)
	if err != nil {
		return nil, err
	}
	var distinct []byte
	for _, l := range in.lines[:len(in.devs)] {
		distinct = append(distinct, l...)
	}

	// Set-up: build the workload, mount the ingester and prime its cache
	// with every distinct syndrome; repeated, median reported.
	var (
		setups []interval
		ing    *volume.Ingester
		tr     *obs.Trace
		fx     *fixture
		prime  bytes.Buffer
		// sink is the ingester's report writer: the priming buffer during
		// set-up, then each timed phase's reportSink. Runs never overlap.
		sink = &switchWriter{w: &prime}
	)
	for rep := 0; rep < setupReps; rep++ {
		prime.Reset()
		sink.w = &prime
		t0 := time.Now()
		if fx, err = buildB1000(); err != nil {
			return nil, err
		}
		tr = obs.New("perfbench")
		ing, err = volume.NewIngester(volume.IngestConfig{
			Workload: workloadName,
			Circuit:  fx.c,
			Patterns: fx.pats,
			Workers:  runtime.NumCPU(),
			Trace:    tr,
			Reports:  sink,
		})
		if err != nil {
			return nil, err
		}
		if _, err := ing.Run(context.Background(), volume.NewRecordReader(bytes.NewReader(distinct))); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		setups = append(setups, interval{t0, time.Now()})
		o.cal.sample()
		o.cal.sample()
	}
	// The priming reports are engine runs: check them all, and score them.
	acc := 0.0
	for i, line := range bytes.Split(bytes.TrimSpace(prime.Bytes()), []byte("\n")) {
		res.attempted++
		rep, err := checkVolumeLine(in, i, line)
		if err != nil {
			res.fail("volume-warm priming record %d: %v", i, err)
			continue
		}
		nets, err := reportNets(fx.c, rep)
		if err != nil {
			return nil, err
		}
		acc += regionAccuracy(fx.c, in.devs[in.devOf[i]], nets)
	}
	acc /= float64(len(in.devs))
	res.repeat["region_accuracy"] = acc
	reg := tr.Registry()

	// The pool as request bodies: batch b is records [b·volumeBatch, (b+1)·volumeBatch).
	var batches [][]byte
	for b := 0; b < len(in.lines); b += volumeBatch {
		batches = append(batches, bytes.Join(in.lines[b:b+volumeBatch], nil))
	}
	r := rand.New(rand.NewSource(o.seed))
	phase := func(dur time.Duration) volumePhaseResult {
		out := &reportSink{offset: r.Intn(volumeSampleEvery), samples: map[int][]byte{}}
		sink.w = out
		runtime.GC()
		before := readVolumeStats(reg)
		var ph volumePhaseResult
		cpu0, t0, calWall := o.cal.readCPU(), time.Now(), o.cal.wall
		for b := 0; time.Since(t0) < dur; b++ {
			if b > 0 {
				o.cal.sample()
			}
			start := time.Now()
			_, err := ing.Run(context.Background(), volume.NewRecordReader(bytes.NewReader(batches[b%len(batches)])))
			end := time.Now()
			ph.runs = append(ph.runs, interval{start, end})
			res.attempted += volumeBatch
			if err != nil {
				res.fail("volume-warm request %d: %v", b, err)
			}
		}
		end, calWall := time.Now(), o.cal.wall-calWall
		ph.records = out.lines
		ph.cpu = cpu0.msPer(o.cal.readCPU(), ph.records)
		ph.wall = o.cal.steal.unstolen(interval{t0, end}) - calWall
		ph.lat = o.cal.steal.unstolenMS(ph.runs)
		after := readVolumeStats(reg)
		ph.delta = volumeStats{after.hits - before.hits, after.misses - before.misses, after.diagnosed - before.diagnosed}
		if missing := len(ph.runs)*volumeBatch - out.lines; missing > 0 {
			res.failN(missing, "volume-warm: %d records produced no report", missing)
		}
		for ord, line := range out.samples {
			if _, err := checkVolumeLine(in, ord%len(in.lines), line); err != nil {
				res.fail("volume-warm record %d: %v", ord, err)
			}
		}
		if ph.delta.diagnosed != 0 {
			res.fail("volume-warm: the engine ran %d times in the timed region", ph.delta.diagnosed)
		}
		return ph
	}

	if !o.trace {
		ph := phase(o.seconds)
		res.e2e["setup_s"] = o.cal.steal.medianSeconds(setups)
		res.e2e["devices_per_s"] = float64(ph.records) / ph.wall.Seconds()
		res.e2e["cpu_ms_per_device"] = ph.cpu
		res.e2e["latency_p50_ms"] = median(ph.lat)
		t := tailOf(ph.lat)
		res.e2e["latency_tail_ms"] = t.Value
		res.detail["latency_tail"] = t
		res.detail["latency_quantiles"] = quantiles(ph.lat)
		res.e2e["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
		res.e2e["region_accuracy"] = acc
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.detail["records"] = ph.records
		return res, nil
	}

	base := phase(o.seconds / 2)
	traced := phase(o.seconds / 2)
	for i, run := range traced.runs {
		o.spans.add("volume.request", -1, i, run.from, run.to)
	}
	layers, err := replayVolume(o.spans, fx, in, ing.Dedupe().Cache())
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, k := range []string{"decode", "fingerprint", "cache_get", "aggregate"} {
		res.layer["volume."+k+"_us"] = layers[k]
		sum += layers[k]
	}
	res.layer["volume.other_us"] = traced.cpu*1000 - sum
	d := traced.delta
	res.layer["volume.hit_frac"] = float64(d.hits) / float64(d.hits+d.misses)
	res.layer["volume.engine_runs"] = float64(d.diagnosed)
	res.layer["bench.trace_overhead_frac"] = traced.cpu/base.cpu - 1
	return res, nil
}

// checkVolumeLine verifies one per-device report line against the
// reference for the pool slot it came from.
func checkVolumeLine(in *volumeInput, slot int, line []byte) (*volume.Report, error) {
	var dr struct {
		DeviceID    string          `json:"device_id"`
		Fingerprint string          `json:"fingerprint"`
		Report      json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(line, &dr); err != nil {
		return nil, err
	}
	d := in.devOf[slot]
	if dr.DeviceID != in.records[slot].DeviceID {
		return nil, fmt.Errorf("report for %q, expected %q", dr.DeviceID, in.records[slot].DeviceID)
	}
	if want := volume.FingerprintDatalog(workloadName, in.devs[d].log).String(); dr.Fingerprint != want {
		return nil, fmt.Errorf("fingerprint %s, expected %s", dr.Fingerprint, want)
	}
	if !bytes.Equal(dr.Report, in.refs[d]) {
		return nil, fmt.Errorf("report differs from the reference diagnosis")
	}
	var rep volume.Report
	return &rep, json.Unmarshal(dr.Report, &rep)
}

// replayVolume runs one pass of the pool through the ingest layers'
// public functions with a span around each call, and returns each
// layer's self time in µs per record.
func replayVolume(rec *recorder, fx *fixture, in *volumeInput, cache *volume.Cache) (map[string]float64, error) {
	var all []byte
	for _, l := range in.lines {
		all = append(all, l...)
	}
	rr := volume.NewRecordReader(bytes.NewReader(all))
	agg := volume.NewAggregator(workloadName, 0)
	for i := 0; i < len(in.lines); i++ {
		root := rec.start("volume.replay", -1, i)
		sp := rec.start("volume.decode", root, i)
		r, _, err := rr.Next()
		if err != nil {
			return nil, err
		}
		log, err := r.BuildDatalog(fx.c, len(fx.pats))
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.start("volume.fingerprint", root, i)
		fp := volume.FingerprintDatalog(workloadName, log)
		rec.end(sp)
		sp = rec.start("volume.cache_get", root, i)
		e, ok := cache.Get(fp)
		rec.end(sp)
		if !ok {
			return nil, fmt.Errorf("replay record %d missed the primed cache", i)
		}
		sp = rec.start("volume.aggregate", root, i)
		agg.Add(r.Site, int64(i/volume.DefaultTrendBucket), e)
		rec.end(sp)
		rec.end(root)
	}
	st := rec.selfTimes()
	n := float64(len(in.lines))
	return map[string]float64{
		"decode":      us(st["volume.decode"]) / n,
		"fingerprint": us(st["volume.fingerprint"]) / n,
		"cache_get":   us(st["volume.cache_get"]) / n,
		"aggregate":   us(st["volume.aggregate"]) / n,
	}, nil
}
