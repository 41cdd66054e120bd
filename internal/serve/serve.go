package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multidiag/internal/fsim"
	"multidiag/internal/incident"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/trace"
	"multidiag/internal/volume"
)

// Config tunes the service spine. The zero value selects serving
// defaults; cmd/mdserve exposes every field as a flag.
type Config struct {
	// MaxInflight caps admitted-but-unfinished requests across all
	// workloads; past it new requests shed (429). Default 64.
	MaxInflight int
	// MaxInflightBytes caps the summed body bytes of admitted requests —
	// the memory backpressure valve for huge datalogs. Default 64 MiB.
	MaxInflightBytes int64
	// QueueDepth caps each workload's admission queue. Default 32.
	QueueDepth int
	// MaxBatch caps how many queued requests one scoring pass coalesces.
	// Default 8.
	MaxBatch int
	// MaxWait bounds how long an opened batch lingers for stragglers. The
	// batcher only lingers under load (something else was already queued);
	// an isolated request executes immediately. Default 2ms.
	MaxWait time.Duration
	// RequestTimeout is the per-request deadline; a request's timeout_ms
	// may lower it, never raise it. Default 30s.
	RequestTimeout time.Duration
	// Workers bounds each scoring pass's fault-parallel pool (0 =
	// GOMAXPROCS).
	Workers int
	// Trace supplies spans and the metrics registry (nil: obs.Global()).
	Trace *obs.Trace
	// TraceSample is the tail sampler's retention probability for routine
	// (unflagged) request traces. Flagged traces — shed, timeout, panic,
	// slower than the live service p95 — are ALWAYS retained regardless.
	// 0 selects the 0.1 default; a negative value disables request tracing
	// entirely (the allocation-free path).
	TraceSample float64
	// TraceCapacity sizes each capture ring (flagged and sampled get one
	// each, so routine traffic can never evict a shed trace). Default 64.
	TraceCapacity int
	// TraceSink, when set, receives every retained trace as one JSON line
	// at request end (mdserve wires -trace-spans-out here, transparently
	// gzipped for .gz paths).
	TraceSink io.Writer

	// IncidentDir, when set, arms the incident observatory: every
	// anomalous request — shed, deadline, engine panic, quality outlier,
	// slower than the anomaly threshold — spools one self-contained debug
	// bundle (payload + trace + prof + explain + engine config) to this
	// directory for offline mdreplay. Empty disables (the default).
	IncidentDir string
	// IncidentMaxBundles / IncidentMaxBytes bound the bundle ring
	// (overwrite-oldest). Defaults 32 bundles / 64 MiB.
	IncidentMaxBundles int
	IncidentMaxBytes   int64
	// IncidentMinInterval rate-limits captures per trigger kind, so an
	// overload sheds thousands of requests but spools one representative
	// bundle per interval. 0 disables the limit.
	IncidentMinInterval time.Duration
	// SlowNS, when set, overrides the slow-anomaly threshold (nanoseconds;
	// ≤ 0 = no threshold yet) used by BOTH the trace tail sampler's "slow"
	// flag and the incident observatory's slow trigger. Nil selects the
	// default: the live service-time p95, held back until 32 observations
	// exist. Tests pin it to force or forbid slow captures.
	SlowNS func() int64

	// VolumeCacheCap bounds each workload's syndrome-fingerprint cache on
	// the /v1/ingest path (0 = the volume package default of 16k entries;
	// < 0 disables dedupe — every ingested record runs the engine).
	VolumeCacheCap int
	// VolumeTrendBucket is the ingest aggregate's trend granularity
	// (devices per bucket for untimestamped records, seconds per bucket
	// for timestamped ones; 0 = the volume package default).
	VolumeTrendBucket int
}

func (cfg *Config) fill() {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = 64 << 20
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.TraceSample == 0 {
		cfg.TraceSample = 0.1
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 64
	}
	if cfg.VolumeTrendBucket <= 0 {
		cfg.VolumeTrendBucket = volume.DefaultTrendBucket
	}
}

// WorkloadSpec registers one circuit with its test set at startup.
type WorkloadSpec struct {
	Name     string
	Circuit  *netlist.Circuit
	Patterns []sim.Pattern
}

// workload is one registered (circuit, test set) with its serving state:
// the admission queue its batcher goroutine drains and the shared
// simulation context (warm cone cache + fault-worker share) every scoring
// pass reuses.
type workload struct {
	name   string
	c      *netlist.Circuit
	pats   []sim.Pattern
	shared fsim.Shared
	// sim is the workload's warm fault simulator, built at registration
	// and passed to every diagnosis as core.Config.SharedSim: the packed
	// good-machine words, the syndrome arena, and the fork free list all
	// persist across requests, so steady-state scoring runs allocation-
	// free. Safe because each workload has exactly one batcher goroutine,
	// which serializes every diagnosis that touches the simulator.
	sim    *fsim.FaultSim
	queue  chan *request
	queued atomic.Int64

	// vol is the workload's syndrome-dedupe front for /v1/ingest: cache
	// hits answer without admission; misses enqueue into the same queue
	// as interactive traffic (so ingest coalesces in the micro-batcher
	// and sheds under the same caps). volAgg folds every ingested device
	// into the fleet aggregate behind GET /v1/volume/summary; volOrd
	// assigns fleet-wide ordinals for trend bucketing.
	vol    *volume.Dedupe
	volAgg *volume.Aggregator
	volOrd atomic.Int64
}

// Server is the diagnosis service. Create with New, mount via Handler,
// stop with Drain.
type Server struct {
	cfg       Config
	tr        *obs.Trace
	reg       *obs.Registry
	mux       *http.ServeMux
	workloads map[string]*workload
	names     []string

	// tracing gates request-scoped span trees; capture is the tail-based
	// retention buffer behind /debug/trace (nil when tracing is off —
	// every capture method tolerates that).
	tracing bool
	capture *trace.Capture

	// incidents is the anomaly-triggered bundle recorder (nil when
	// Config.IncidentDir is empty — captureIncident tolerates that);
	// slowNS is the shared slow-anomaly threshold.
	incidents *incident.Recorder
	slowNS    func() int64

	draining      atomic.Bool
	admitMu       sync.RWMutex // excludes admission during queue close
	inflight      atomic.Int64
	inflightBytes atomic.Int64
	batchers      sync.WaitGroup

	// flaggedIDs samples the request IDs of notable outcomes for the
	// service record: the join key from aggregate counters back into logs
	// and captured traces.
	flaggedMu  sync.Mutex
	flaggedIDs []string

	// testHookExecute, when set by tests, runs at the start of every
	// scoring pass (after the batch is assembled, before the engine).
	testHookExecute func(batch int)
}

// New builds a server, registering and validating every workload. Each
// workload gets a bounded queue and one batcher goroutine; a construction
// error (e.g. a pattern set that does not fit its circuit) fails startup
// rather than the first request.
func New(cfg Config, specs []WorkloadSpec) (*Server, error) {
	cfg.fill()
	tr := cfg.Trace
	if tr == nil {
		tr = obs.Global()
	}
	s := &Server{
		cfg:       cfg,
		tr:        tr,
		reg:       tr.Registry(),
		mux:       http.NewServeMux(),
		workloads: make(map[string]*workload),
	}
	// One slow threshold serves both anomaly consumers (trace "slow" flag,
	// incident slow trigger): by default the live service-time p95 (µs →
	// ns), held back until enough observations exist for the quantile to
	// mean something.
	s.slowNS = cfg.SlowNS
	if s.slowNS == nil {
		svc := s.reg.Histogram("serve.service_us")
		s.slowNS = func() int64 {
			if svc.Count() < 32 {
				return 0
			}
			return svc.Quantile(0.95) * 1000
		}
	}
	if cfg.TraceSample >= 0 {
		s.tracing = true
		s.capture = trace.NewCapture(trace.CaptureConfig{
			Capacity:   cfg.TraceCapacity,
			SampleRate: cfg.TraceSample,
			Sink:       cfg.TraceSink,
			SlowNS:     s.slowNS,
			Registry:   s.reg,
		})
	}
	if cfg.IncidentDir != "" {
		rec, err := incident.NewRecorder(incident.Config{
			Dir:         cfg.IncidentDir,
			MaxBundles:  cfg.IncidentMaxBundles,
			MaxBytes:    cfg.IncidentMaxBytes,
			MinInterval: cfg.IncidentMinInterval,
			Registry:    s.reg,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.incidents = rec
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no workloads registered")
	}
	for _, spec := range specs {
		if spec.Name == "" || spec.Circuit == nil || len(spec.Patterns) == 0 {
			return nil, fmt.Errorf("serve: workload %q: name, circuit and patterns are required", spec.Name)
		}
		if _, dup := s.workloads[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate workload %q", spec.Name)
		}
		// Validate the pair, warm the shape-bound cone cache, and retain
		// the simulator for every future scoring pass: the first request
		// should pay scoring cost, not startup cost, and later requests
		// should not even pay arena warm-up.
		fs, err := fsim.NewFaultSim(spec.Circuit, spec.Patterns)
		if err != nil {
			return nil, fmt.Errorf("serve: workload %q: %w", spec.Name, err)
		}
		shared := fsim.NewShared(s.reg, cfg.Workers, 1)
		if !fs.AttachCache(shared.Cache) {
			return nil, fmt.Errorf("serve: workload %q: cone cache rejected workload shape", spec.Name)
		}
		w := &workload{
			name:   spec.Name,
			c:      spec.Circuit,
			pats:   spec.Patterns,
			shared: shared,
			sim:    fs,
			queue:  make(chan *request, cfg.QueueDepth),
			volAgg: volume.NewAggregator(spec.Name, 0),
		}
		var volCache *volume.Cache
		if cfg.VolumeCacheCap >= 0 {
			volCache = volume.NewCache(cfg.VolumeCacheCap)
		}
		w.vol = volume.NewDedupe(spec.Name, volCache, s.volumeDiag(w))
		w.vol.Observe(s.reg)
		s.workloads[spec.Name] = w
		s.batchers.Add(1)
		go s.batcher(w)
	}
	s.names = sortedNames(s.workloads)
	s.reg.Gauge("serve.workloads").Set(int64(len(s.workloads)))
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("POST /v1/diagnose/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/volume/summary", s.handleVolumeSummary)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	// Continuous-profiling snapshots (404 while no prof collector is
	// installed, matching the debug-mux registration in prof.Flags.Setup).
	s.mux.Handle("GET /debug/prof", prof.Handler())
	// Incident-bundle index (404 while the observatory is disarmed — the
	// handler tolerates a nil recorder).
	s.mux.Handle("GET /debug/incidents", s.incidents.Handler())
}

// Handler returns the service's HTTP handler: the route mux behind the
// request-ID middleware, so EVERY response — including sheds, timeouts
// and 404s — carries an X-Request-ID that log lines and traces join on.
func (s *Server) Handler() http.Handler { return requestIDMiddleware(s.mux) }

// requestIDMiddleware echoes the client's X-Request-ID or generates one
// (16 hex chars, same generator as span IDs). The header is also written
// back onto the inbound request so downstream handlers read one place.
func requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = trace.NewSpanID().String()
			r.Header.Set("X-Request-ID", id)
		}
		rw.Header().Set("X-Request-ID", id)
		next.ServeHTTP(rw, r)
	})
}

// Drain gracefully stops the server: admission closes (readyz and new
// requests get 503), queued and in-flight requests finish, the batcher
// goroutines exit. It returns ctx.Err() if the context expires first —
// in-flight work keeps its own deadlines either way.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // already draining
	}
	// Exclude admitters while the queues close: admission holds the read
	// lock across its draining-check + enqueue, so after Lock() no sender
	// can race the close.
	s.admitMu.Lock()
	for _, w := range s.workloads {
		close(w.queue)
	}
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.batchers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit runs the load-shedding checks and enqueues the request onto its
// workload. It returns an HTTP status: 0 on success, 429 when a limit
// sheds the request, 503 while draining.
func (s *Server) admit(w *workload, req *request) int {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return http.StatusServiceUnavailable
	}
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.shed("inflight", req)
		return http.StatusTooManyRequests
	}
	if s.inflightBytes.Add(req.bytes) > s.cfg.MaxInflightBytes {
		s.inflightBytes.Add(-req.bytes)
		s.inflight.Add(-1)
		s.shed("bytes", req)
		return http.StatusTooManyRequests
	}
	select {
	case w.queue <- req:
		w.queued.Add(1)
		s.reg.Gauge("serve.inflight").Set(s.inflight.Load())
		s.reg.Counter("serve.requests").Inc()
		return 0
	default:
		s.inflightBytes.Add(-req.bytes)
		s.inflight.Add(-1)
		s.shed("queue", req)
		return http.StatusTooManyRequests
	}
}

// release returns a request's admission budget.
func (s *Server) release(req *request) {
	s.inflightBytes.Add(-req.bytes)
	s.reg.Gauge("serve.inflight").Set(s.inflight.Add(-1))
}

func (s *Server) shed(kind string, req *request) {
	s.reg.Counter("serve.shed").Inc()
	s.reg.Counter("serve.shed_" + kind).Inc()
	// A shed is exactly the moment the profile matters: pin a snapshot
	// into the always-keep ring (rate-limited, no-op when profiling is
	// off) so /debug/prof still shows what the process looked like under
	// the overload after the rolling ring has moved on. The shed request's
	// IDs ride the pin, joining it to the captured trace and any bundle.
	prof.PinWith("shed:"+kind, req.reqID, exemplarID(req))
}

// maxFlaggedIDs bounds the service record's request-ID sample.
const maxFlaggedIDs = 16

// noteFlagged records "kind:requestID" for the service record, keeping
// the newest maxFlaggedIDs entries.
func (s *Server) noteFlagged(kind, id string) {
	if id == "" {
		return
	}
	s.flaggedMu.Lock()
	s.flaggedIDs = append(s.flaggedIDs, kind+":"+id)
	if len(s.flaggedIDs) > maxFlaggedIDs {
		s.flaggedIDs = s.flaggedIDs[len(s.flaggedIDs)-maxFlaggedIDs:]
	}
	s.flaggedMu.Unlock()
}

// requestContext derives the per-request deadline: the server default,
// lowered (never raised) by the request's timeout_ms.
func (s *Server) requestContext(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(parent, d)
}

// startTrace opens a request's span tree: joining the caller's trace when
// the request carries a valid W3C traceparent (the root span becomes a
// child of the remote span), starting a fresh one otherwise. The response
// traceparent names this request's root span so the caller can stitch.
// With tracing off it returns (nil, inert span) and every downstream use
// is a no-op — the allocation-free path.
func (s *Server) startTrace(rw http.ResponseWriter, r *http.Request, endpoint, workload string) (*trace.Tree, trace.Span) {
	if !s.tracing {
		return nil, trace.Span{}
	}
	tid, parent, remote := trace.ParseTraceparent(r.Header.Get("traceparent"))
	tree := trace.NewTree(tid) // zero tid (no/bad header) draws a fresh ID
	if remote {
		tree.SetRemoteParent(parent)
	}
	tree.SetAttr("request_id", r.Header.Get("X-Request-ID"))
	tree.SetAttr("endpoint", endpoint)
	tree.SetAttr("workload", workload)
	root := tree.Start("serve.request")
	rw.Header().Set("traceparent", trace.Traceparent(tree.TraceID(), root.ID()))
	return tree, root
}

// finishTrace closes the request's root span and offers the tree to the
// tail sampler — the point where the keep/drop decision is made, with the
// outcome (status, flags) known. Spans still open (an executor racing a
// handler timeout) appear Unfinished in the captured record.
func (s *Server) finishTrace(tree *trace.Tree, root trace.Span, status int) {
	if tree == nil {
		return
	}
	root.SetInt("status", int64(status))
	root.End()
	s.capture.Offer(tree)
}

func (s *Server) handleDiagnose(rw http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(rw, r.Body, maxRequestBytes)
	var dr DiagnoseRequest
	if err := json.NewDecoder(body).Decode(&dr); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		dr.Explain = true
	}
	w, ok := s.workloads[dr.Workload]
	if !ok {
		httpError(rw, http.StatusNotFound, fmt.Sprintf("unknown workload %q (see /v1/workloads)", dr.Workload))
		return
	}
	log, err := buildDatalog(w.c, len(w.pats), dr.Datalog, dr.Response)
	if err != nil {
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	top := 10
	if dr.Top != nil {
		top = *dr.Top
	}
	tree, root := s.startTrace(rw, r, "/v1/diagnose", dr.Workload)
	ctx, cancel := s.requestContext(trace.WithSpan(r.Context(), root), dr.TimeoutMS)
	defer cancel()
	req := newRequest(ctx, log, top, r.ContentLength)
	req.explain, req.reqID, req.tree, req.span = dr.Explain, r.Header.Get("X-Request-ID"), tree, root
	// The queue span opens before admission so the batcher can never
	// dequeue a request whose queueSpan is still being assigned.
	req.queueSpan = root.Start("serve.queue")
	if status := s.admit(w, req); status != 0 {
		req.queueSpan.End()
		tree.Flag("shed")
		s.noteFlagged("shed", req.reqID)
		s.finishTrace(tree, root, status)
		if status == http.StatusTooManyRequests {
			s.captureIncident(incident.TriggerShed, status, w, req, nil, nil)
		}
		shedResponse(rw, status)
		return
	}
	defer s.release(req)
	select {
	case resp := <-req.done:
		if resp.err != nil {
			s.reg.Counter("serve.errors").Inc()
			s.finishTrace(tree, root, resp.status)
			switch resp.status {
			case http.StatusGatewayTimeout:
				s.captureIncident(incident.TriggerDeadline, resp.status, w, req, nil, resp.events)
			case http.StatusInternalServerError:
				s.captureIncident(incident.TriggerPanic, resp.status, w, req, nil, resp.events)
			}
			httpError(rw, resp.status, resp.err.Error())
			return
		}
		s.finishTrace(tree, root, http.StatusOK)
		if trig := s.successTrigger(resp.report, req); trig != "" {
			s.captureIncident(trig, http.StatusOK, w, req, resp.report, resp.events)
		}
		writeJSON(rw, http.StatusOK, resp.report)
	case <-ctx.Done():
		// The executor may still send a response; the buffered channel
		// keeps it from blocking. The client sees the deadline.
		s.reg.Counter("serve.timeouts").Inc()
		tree.Flag("timeout")
		s.noteFlagged("timeout", req.reqID)
		s.finishTrace(tree, root, http.StatusGatewayTimeout)
		s.captureIncident(incident.TriggerDeadline, http.StatusGatewayTimeout, w, req, nil, nil)
		httpError(rw, http.StatusGatewayTimeout, fmt.Sprintf("request deadline exceeded: %v", ctx.Err()))
	}
}

func (s *Server) handleBatch(rw http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(rw, r.Body, maxRequestBytes)
	var br BatchRequest
	if err := json.NewDecoder(body).Decode(&br); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	w, ok := s.workloads[br.Workload]
	if !ok {
		httpError(rw, http.StatusNotFound, fmt.Sprintf("unknown workload %q (see /v1/workloads)", br.Workload))
		return
	}
	if len(br.Devices) == 0 {
		httpError(rw, http.StatusBadRequest, "batch carries no devices")
		return
	}
	top := 10
	if br.Top != nil {
		top = *br.Top
	}
	// One HTTP request → one tree: each device hangs under the root as a
	// "serve.device" span, so a batch trace shows per-device queueing and
	// which devices coalesced into which scoring pass.
	tree, root := s.startTrace(rw, r, "/v1/diagnose/batch", br.Workload)
	reqID := r.Header.Get("X-Request-ID")
	ctx, cancel := s.requestContext(trace.WithSpan(r.Context(), root), br.TimeoutMS)
	defer cancel()

	// Devices are admitted individually so shedding is partial: the
	// results array reports a per-device 429 rather than failing the
	// whole batch. Shared body bytes are attributed to the first device.
	results := make([]DeviceResult, len(br.Devices))
	reqs := make([]*request, len(br.Devices))
	// Anomalous devices are captured AFTER the shared tree is finished, so
	// every bundle from this batch carries the complete trace.
	var pending []pendingIncident
	bytes := r.ContentLength
	for i, dev := range br.Devices {
		log, err := buildDatalog(w.c, len(w.pats), dev.Datalog, dev.Response)
		if err != nil {
			results[i] = DeviceResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("device %d: %v", i, err)}
			continue
		}
		req := newRequest(ctx, log, top, bytes)
		req.reqID, req.tree = reqID, tree
		req.span = root.Start("serve.device")
		req.span.SetInt("device", int64(i))
		req.queueSpan = req.span.Start("serve.queue")
		bytes = 0
		if status := s.admit(w, req); status != 0 {
			req.queueSpan.End()
			tree.Flag("shed")
			s.noteFlagged("shed", reqID)
			req.span.SetInt("status", int64(status))
			req.span.End()
			if status == http.StatusTooManyRequests {
				pending = append(pending, pendingIncident{trigger: incident.TriggerShed, status: status, req: req})
			}
			results[i] = DeviceResult{Status: status, Error: http.StatusText(status)}
			continue
		}
		reqs[i] = req
	}
	for i, req := range reqs {
		if req == nil {
			continue
		}
		select {
		case resp := <-req.done:
			if resp.err != nil {
				s.reg.Counter("serve.errors").Inc()
				results[i] = DeviceResult{Status: resp.status, Error: resp.err.Error()}
				switch resp.status {
				case http.StatusGatewayTimeout:
					pending = append(pending, pendingIncident{trigger: incident.TriggerDeadline, status: resp.status, req: req, events: resp.events})
				case http.StatusInternalServerError:
					pending = append(pending, pendingIncident{trigger: incident.TriggerPanic, status: resp.status, req: req, events: resp.events})
				}
			} else {
				results[i] = DeviceResult{Status: http.StatusOK, Report: resp.report}
				if trig := s.successTrigger(resp.report, req); trig != "" {
					pending = append(pending, pendingIncident{trigger: trig, status: http.StatusOK, req: req, rep: resp.report, events: resp.events})
				}
			}
		case <-ctx.Done():
			s.reg.Counter("serve.timeouts").Inc()
			tree.Flag("timeout")
			s.noteFlagged("timeout", reqID)
			results[i] = DeviceResult{Status: http.StatusGatewayTimeout, Error: ctx.Err().Error()}
			pending = append(pending, pendingIncident{trigger: incident.TriggerDeadline, status: http.StatusGatewayTimeout, req: req})
		}
		req.span.SetInt("status", int64(results[i].Status))
		req.span.End()
		s.release(req)
	}
	s.finishTrace(tree, root, http.StatusOK)
	for _, p := range pending {
		s.captureIncident(p.trigger, p.status, w, p.req, p.rep, p.events)
	}
	writeJSON(rw, http.StatusOK, &BatchReply{Results: results})
}

func (s *Server) handleWorkloads(rw http.ResponseWriter, r *http.Request) {
	infos := make([]WorkloadInfo, 0, len(s.names))
	for _, name := range s.names {
		w := s.workloads[name]
		infos = append(infos, WorkloadInfo{
			Name:       name,
			Gates:      w.c.NumGates(),
			PIs:        len(w.c.PIs),
			POs:        len(w.c.POs),
			Patterns:   len(w.pats),
			QueueDepth: int(w.queued.Load()),
		})
	}
	writeJSON(rw, http.StatusOK, infos)
}

func (s *Server) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(rw, "ok")
}

func (s *Server) handleReadyz(rw http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(rw, http.StatusServiceUnavailable, "draining")
		return
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(rw, "ready")
}

// handleDebugTrace serves the tail-capture buffer as NDJSON — one
// mdtrace/v1 TreeRecord per line, flagged traces first, each ring
// oldest-first. `mdtrace` reads this body directly.
func (s *Server) handleDebugTrace(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/x-ndjson")
	if s.capture == nil {
		return
	}
	for _, rec := range s.capture.Snapshot() {
		if err := rec.WriteJSONL(rw); err != nil {
			s.reg.Counter("serve.errors").Inc()
			return
		}
	}
}

func (s *Server) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WritePrometheus(rw, s.reg); err != nil {
		s.reg.Counter("serve.errors").Inc()
	}
}

// maxRequestBytes bounds one request body; a datalog for the largest
// built-in workload is well under this.
const maxRequestBytes = 32 << 20

func httpError(rw http.ResponseWriter, status int, msg string) {
	writeJSON(rw, status, map[string]string{"error": msg})
}

func shedResponse(rw http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests {
		rw.Header().Set("Retry-After", "1")
	}
	httpError(rw, status, http.StatusText(status))
}

func writeJSON(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
