package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"multidiag/internal/core"
	"multidiag/internal/obs"
	"multidiag/internal/serve"
)

const (
	// serveRate is the open loop's fixed arrival rate, about half the
	// closed-loop capacity of a 2-vCPU host (~8 devices/s).
	serveRate = 4.0
	// serveWarmup devices are diagnosed sequentially during set-up, so the
	// workload's cone cache is warm before timing.
	serveWarmup = 4
	// serveChecked is the seeded sample of responses compared against a
	// direct core.Diagnose.
	serveChecked = 24
	// serveStrata is makeDevices' candidates per kept device.
	serveStrata = 2
	// idleMargin is the least time before a send that openLoop runs its
	// idle work in; a calibration chunk takes a few milliseconds.
	idleMargin = 20 * time.Millisecond
)

// server is one booted in-process mdserve.
type server struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func bootServer(fx *fixture) (*server, error) {
	// mdserve always installs a trace, whose registry /metrics exports.
	s, err := serve.New(serve.Config{Trace: obs.New("mdserve")}, []serve.WorkloadSpec{{Name: workloadName, Circuit: fx.c, Patterns: fx.pats}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { srv.done <- srv.hs.Serve(ln) }()
	return srv, nil
}

// stop drains the service and closes the listener, waiting for both.
func (srv *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-srv.done; err != http.ErrServerClosed {
		return err
	}
	return srv.s.Drain(ctx)
}

// reply is one request's outcome.
type reply struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// openLoop sends one call per offset at start+offset, with at most conns
// calls in flight. A call that cannot start on time waits for a slot and
// is charged from its due time, so a stall also delays the requests
// queued behind it. idle, if not nil, runs at most once per gap between
// sends: when no call is in flight and the next send is at least
// idleMargin away, so it never runs beside a call or delays one.
func openLoop(start time.Time, offsets []time.Duration, conns int, call func(i int) (int, []byte, error), idle func()) []reply {
	out := make([]reply, len(offsets))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		for idle != nil && time.Until(due) > idleMargin {
			if len(slots) == 0 {
				idle()
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		out[i].due = due
		out[i].sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			out[i].status, out[i].body, out[i].err = call(i)
			out[i].done = time.Now()
		}(i)
	}
	wg.Wait()
	return out
}

// arrivals is the seeded schedule: n arrivals at the given mean rate,
// each gap drawn uniformly from half to one and a half of the mean gap,
// then scaled so the last arrival is due at (n-1)/rate on every seed.
func arrivals(r *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]float64, n)
	total := 0.0
	for i := 1; i < n; i++ {
		gaps[i] = 0.5 + r.Float64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		if total > 0 {
			t += gaps[i] / total * float64(n-1) / rate * float64(time.Second)
		}
		out[i] = time.Duration(t)
	}
	return out
}

// runServe is the serve-open workload: an in-process mdserve with the
// default config receiving POST /v1/diagnose for distinct devices as an
// open loop at serveRate.
func runServe(o *opts) (*result, error) {
	res := newResult()
	gen, err := buildB1000()
	if err != nil {
		return nil, err
	}
	if err := checkFixture(gen); err != nil {
		return nil, err
	}
	n := int(serveRate * o.seconds.Seconds())
	devs, err := makeDevices(gen, o.seed, serveWarmup+n, serveStrata)
	if err != nil {
		return nil, err
	}
	warm, devs := devs[:serveWarmup], devs[serveWarmup:]
	bodies := make([][]byte, len(devs)+len(warm))
	for i, d := range append(append([]*device{}, devs...), warm...) {
		if bodies[i], err = json.Marshal(serve.DiagnoseRequest{Workload: workloadName, Datalog: d.text}); err != nil {
			return nil, err
		}
	}
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	post := func(url string, body []byte) (int, []byte, error) {
		resp, err := client.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	// Set-up: build, boot, warm; repeated, median reported.
	var (
		setups []interval
		srv    *server
		fx     *fixture
	)
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if fx, err = buildB1000(); err != nil {
			return nil, err
		}
		if srv, err = bootServer(fx); err != nil {
			return nil, err
		}
		for i := range warm {
			if status, _, err := post(srv.url, bodies[len(devs)+i]); err != nil || status != http.StatusOK {
				srv.stop()
				return nil, fmt.Errorf("warm-up request: status %d, %v", status, err)
			}
		}
		setups = append(setups, interval{t0, time.Now()})
		o.cal.sample()
		o.cal.sample()
	}
	defer func() {
		if err := srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the server:", err)
		}
	}()

	r := rand.New(rand.NewSource(o.seed))
	offsets := arrivals(r, len(devs), serveRate)
	// phase runs the open loop over devices [lo, hi).
	phase := func(lo, hi int) servePhase {
		sched := make([]time.Duration, hi-lo)
		for i := range sched {
			sched[i] = offsets[lo+i] - offsets[lo]
		}
		hits0, miss0, err := scrapeConeCache(client, srv.url)
		if err != nil {
			res.fail("scrape /metrics: %v", err)
		}
		runtime.GC()
		// Calibration chunks run in the gaps when no request is in
		// flight: a chunk beside the server would measure its load too.
		cpu0 := o.cal.readCPU()
		replies := openLoop(time.Now(), sched, conns, func(i int) (int, []byte, error) { return post(srv.url, bodies[lo+i]) }, o.cal.sample)
		ph := servePhase{replies: replies, cpu: cpu0.msPer(o.cal.readCPU(), len(replies))}
		hits1, miss1, err := scrapeConeCache(client, srv.url)
		if err != nil {
			res.fail("scrape /metrics: %v", err)
		}
		if h, m := hits1-hits0, miss1-miss0; h+m > 0 {
			ph.coneHitFrac = float64(h) / float64(h+m)
		}
		ph.check(fx, devs[lo:hi], r, o.cal.steal, res)
		return ph
	}

	if !o.trace {
		ph := phase(0, len(devs))
		res.e2e["setup_s"] = o.cal.steal.medianSeconds(setups)
		last := ph.replies[0].due
		for _, rp := range ph.replies {
			if rp.done.After(last) {
				last = rp.done
			}
		}
		// Completions per wall second from the first due time to the last
		// reply: the offered rate unless a backlog grows.
		res.e2e["devices_per_s"] = float64(len(ph.replies)) / last.Sub(ph.replies[0].due).Seconds()
		res.unscaled["devices_per_s"] = true // it follows the offered rate
		res.e2e["cpu_ms_per_device"] = ph.cpu
		res.e2e["latency_p50_ms"] = median(ph.lat)
		t := tailOf(ph.lat)
		res.e2e["latency_tail_ms"] = t.Value
		res.detail["latency_tail"] = t
		res.detail["latency_quantiles"] = quantiles(ph.lat)
		res.e2e["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
		res.e2e["region_accuracy"] = ph.accuracy
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.repeat["region_accuracy"] = ph.accuracy
		return res, nil
	}

	// Traced: the first half of the devices untraced, the second traced.
	base := phase(0, len(devs)/2)
	tr := phase(len(devs)/2, len(devs))
	for i, rp := range tr.replies {
		root := o.spans.add("loadgen.request", -1, i, rp.due, rp.done)
		o.spans.add("loadgen.late", root, i, rp.due, rp.sent)
		o.spans.add("http.request", root, i, rp.sent, rp.done)
	}
	res.layer["serve.queue_wait_p50_ms"] = median(tr.queueWait)
	qt := tailOf(tr.queueWait)
	res.layer["serve.queue_wait_tail_ms"] = qt.Value
	res.detail["queue_wait_tail"] = qt
	res.layer["serve.engine_ms"] = median(tr.engine)
	res.layer["serve.http_ms"] = median(tr.http)
	res.layer["serve.batch_size_mean"] = mean(tr.batch)
	res.layer["fsim.cone_cache_hit_frac"] = tr.coneHitFrac
	res.layer["serve.shed_frac"] = float64(tr.shed) / float64(len(tr.replies))
	res.layer["loadgen.late_ms"] = mean(tr.late)
	res.layer["bench.trace_overhead_frac"] = tr.cpu/base.cpu - 1
	return res, nil
}

// servePhase is one open-loop pass and what its replies said.
type servePhase struct {
	replies                        []reply
	cpu                            float64 // ms per request
	lat, late                      []float64
	queueWait, engine, http, batch []float64
	shed                           int
	coneHitFrac, accuracy          float64
}

// check decodes every reply, scores it against its device's injected
// defects, and compares a seeded sample with a direct core.Diagnose.
func (ph *servePhase) check(fx *fixture, devs []*device, r *rand.Rand, steal *stealMeter, res *result) {
	sample := map[int]bool{}
	for _, i := range r.Perm(len(ph.replies))[:min(serveChecked, len(ph.replies))] {
		sample[i] = true
	}
	acc := 0.0
	for i, rp := range ph.replies {
		res.attempted++
		ph.lat = append(ph.lat, ms(steal.unstolen(interval{rp.due, rp.done})))
		ph.late = append(ph.late, ms(rp.sent.Sub(rp.due)))
		if rp.status == http.StatusTooManyRequests {
			ph.shed++
		}
		if rp.err != nil || rp.status != http.StatusOK {
			res.fail("serve-open request %d: status %d, %v: %.200s", i, rp.status, rp.err, rp.body)
			continue
		}
		var rep serve.Report
		if err := json.Unmarshal(rp.body, &rep); err != nil {
			res.fail("serve-open request %d: %v", i, err)
			continue
		}
		ph.queueWait = append(ph.queueWait, rep.QueueWaitMS)
		ph.engine = append(ph.engine, rep.ElapsedMS)
		ph.http = append(ph.http, ms(rp.done.Sub(rp.sent))-rep.ElapsedMS-rep.QueueWaitMS)
		ph.batch = append(ph.batch, float64(rep.BatchSize))
		nets, err := reportNets(fx.c, &rep.Report)
		if err != nil {
			res.fail("serve-open request %d: %v", i, err)
			continue
		}
		acc += regionAccuracy(fx.c, devs[i], nets)
		if !sample[i] {
			continue
		}
		d, err := core.Diagnose(fx.c, fx.pats, devs[i].log, core.Config{})
		if err != nil {
			res.fail("serve-open request %d: reference: %v", i, err)
			continue
		}
		want := serve.BuildReport(workloadName, fx.c, devs[i].log, d, reportTop)
		got := rep
		for _, x := range []*serve.Report{want, &got} {
			x.ElapsedMS, x.QueueWaitMS, x.BatchSize, x.RequestID, x.TraceID = 0, 0, 0, "", ""
		}
		wb, _ := json.Marshal(want) // plain structs always encode
		gb, _ := json.Marshal(&got)
		if !bytes.Equal(wb, gb) {
			res.fail("serve-open request %d: report differs from the reference diagnosis", i)
		}
	}
	ph.accuracy = acc / float64(len(ph.replies))
}

// scrapeConeCache reads the cone-cache hit and miss counters from the
// service's /metrics.
func scrapeConeCache(client *http.Client, url string) (hits, misses int64, err error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "multidiag_fsim_cone_cache_hits":
			dst = &hits
		case "multidiag_fsim_cone_cache_misses":
			dst = &misses
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(strings.TrimSpace(val), 10, 64); err != nil {
			return 0, 0, err
		}
	}
	return hits, misses, sc.Err()
}
