package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"multidiag/internal/core"
	"multidiag/internal/explain"
	"multidiag/internal/prof"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// request is one admitted diagnosis riding the workload queue.
type request struct {
	ctx      context.Context
	log      *tester.Datalog
	top      int
	explain  bool
	bytes    int64
	enqueued time.Time
	// done receives exactly one response; buffered so the executor never
	// blocks on a handler that already timed out and left.
	done chan response

	// Tracing state (zero values when tracing is off — every use is a
	// no-op). tree is the request's span tree; span the span engine work
	// hangs under (the root for solo requests, a per-device span for
	// batch members); queueSpan covers admission-to-dequeue.
	reqID     string
	tree      *trace.Tree
	span      trace.Span
	queueSpan trace.Span
}

// newRequest builds a request stamped as enqueued now; an unknown body
// size (negative Content-Length) counts as zero bytes.
func newRequest(ctx context.Context, log *tester.Datalog, top int, bytes int64) *request {
	return &request{ctx: ctx, log: log, top: top, bytes: max(bytes, 0), enqueued: time.Now(), done: make(chan response, 1)}
}

type response struct {
	report *Report
	status int
	err    error
	// events are the request's flight-recorder events when it ran with
	// the recorder attached (explained solo requests) — the handler folds
	// them into an incident bundle if the request turns out anomalous.
	events []explain.Event
}

// batcher is the per-workload service loop: adaptive micro-batching in
// the group-commit style. It blocks for the first request, then drains
// whatever else is already queued; only if that found company does it
// linger (up to MaxWait) for stragglers. An isolated request therefore
// pays zero added latency, while a burst coalesces into one
// core.DiagnoseBatch scoring pass. Explained requests are set aside
// during batch assembly and run as a batch of one — the flight recorder
// narrates exactly one diagnosis.
func (s *Server) batcher(w *workload) {
	defer s.batchers.Done()
	for {
		first, ok := <-w.queue
		if !ok {
			return
		}
		w.queued.Add(-1)
		batch := []*request{}
		var solo []*request
		add := func(r *request) {
			if r.explain {
				solo = append(solo, r)
			} else {
				batch = append(batch, r)
			}
		}
		add(first)

		// Greedy drain: everything already queued, up to MaxBatch.
		closed := false
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r, ok := <-w.queue:
				if !ok {
					closed = true
					break drain
				}
				w.queued.Add(-1)
				add(r)
			default:
				break drain
			}
		}
		// Linger only under load: the greedy drain found company, so more
		// arrivals are likely worth one batch.
		if !closed && len(batch) > 1 {
			timer := time.NewTimer(s.cfg.MaxWait)
		linger:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r, ok := <-w.queue:
					if !ok {
						break linger
					}
					w.queued.Add(-1)
					add(r)
				case <-timer.C:
					break linger
				}
			}
			timer.Stop()
		}

		if len(batch) > 0 {
			s.execute(w, batch)
		}
		for _, r := range solo {
			s.execute(w, []*request{r})
		}
	}
}

// execute runs one scoring pass over the batch, panic-isolated: a panic
// in the engine answers this batch's requests with 500 and leaves the
// batcher alive for the next one.
func (s *Server) execute(w *workload, batch []*request) {
	defer func() {
		if p := recover(); p != nil {
			s.reg.Counter("serve.panics").Inc()
			prof.PinWith("panic", batch[0].reqID, exemplarID(batch[0]))
			err := fmt.Errorf("diagnosis panicked: %v\n%s", p, debug.Stack())
			for _, r := range batch {
				r.tree.Flag("panic")
				s.noteFlagged("panic", r.reqID)
				r.done <- response{status: http.StatusInternalServerError, err: err}
			}
		}
	}()

	// Requests whose deadline already passed are answered without
	// spending engine time on them.
	live := batch[:0]
	for _, r := range batch {
		r.queueSpan.End()
		if r.ctx.Err() != nil {
			s.reg.Counter("serve.expired").Inc()
			r.tree.Flag("timeout")
			s.noteFlagged("timeout", r.reqID)
			r.done <- response{status: http.StatusGatewayTimeout, err: fmt.Errorf("deadline exceeded before execution: %v", r.ctx.Err())}
			continue
		}
		s.reg.Histogram("serve.queue_wait_us").ObserveEx(time.Since(r.enqueued).Microseconds(), exemplarID(r))
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if s.testHookExecute != nil {
		s.testHookExecute(len(live))
	}
	s.reg.Counter("serve.batches").Inc()
	s.reg.Histogram("serve.batch_size").Observe(int64(len(live)))

	start := time.Now()
	s.diagnose(w, live)
	// The batch's service time is exemplified by the leader's trace — the
	// tree the engine spans landed in.
	s.reg.Histogram("serve.service_us").ObserveNEx(time.Since(start).Microseconds(), int64(len(live)), exemplarID(live[0]))
}

// exemplarID renders a request's trace ID for histogram exemplars, empty
// when tracing is off (which degrades ObserveEx to a plain Observe).
func exemplarID(r *request) string {
	if r.tree == nil {
		return ""
	}
	return r.tree.TraceID().String()
}

// diagnose runs the batch through one core.DiagnoseBatch pass under a
// context that stays live while any member still wants its answer. A
// batch of one explained request runs with the flight recorder attached
// and answers with an inline narrative.
func (s *Server) diagnose(w *workload, batch []*request) {
	cfg := core.Config{
		Workers:   s.cfg.Workers,
		ConeCache: w.shared.Cache,
		SharedSim: w.sim,
		Trace:     s.tr,
	}
	var rec *explain.Recorder
	if len(batch) == 1 && batch[0].explain {
		rec = explain.New("serve/" + w.name)
		cfg.Explain = rec
	}
	logs := make([]*tester.Datalog, len(batch))
	for i, r := range batch {
		logs[i] = r.log
	}
	ctx, cancel := mergedContext(batch)
	defer cancel()
	// Engine spans land in ONE tree — the leader's (batch[0]) — under its
	// "serve.execute" span; a multi-tree tee would double-count every
	// phase. Followers get a "serve.execute.coalesced" span carrying the
	// leader's trace ID, so their trees point at where the engine time is
	// attributed.
	leader := batch[0]
	esp := leader.span.Start("serve.execute")
	esp.SetInt("batch_size", int64(len(batch)))
	for _, r := range batch[1:] {
		fsp := r.span.Start("serve.execute.coalesced")
		fsp.SetInt("batch_size", int64(len(batch)))
		if leader.tree != nil {
			fsp.SetStr("leader_trace", leader.tree.TraceID().String())
		}
		defer fsp.End()
	}
	pctx, unlabel := prof.WithWorkload(ctx, w.name)
	results, errs, err := core.DiagnoseBatch(trace.WithSpan(pctx, esp), w.c, w.pats, logs, cfg)
	unlabel()
	esp.End()
	var events []explain.Event
	if rec != nil {
		events, _ = rec.Events()
	}
	for i, r := range batch {
		if results[i] == nil {
			e := errs[i]
			if e == nil {
				e = err // the pass failed (cancellation) before this member finished
			}
			r.done <- response{status: engineStatus(e), err: e, events: events}
			continue
		}
		rep := s.buildResponse(w, r, results[i], len(batch))
		if rec != nil {
			var b strings.Builder
			if err := explain.RenderNarrative(&b, events, 10); err == nil {
				rep.Explain = b.String()
			}
		}
		r.done <- response{report: rep, status: http.StatusOK, events: events}
	}
}

func (s *Server) buildResponse(w *workload, r *request, res *core.Result, batchSize int) *Report {
	rep := BuildReport(w.name, w.c, r.log, res, r.top)
	rep.QueueWaitMS = float64(time.Since(r.enqueued).Microseconds())/1000 - rep.ElapsedMS
	if rep.QueueWaitMS < 0 {
		rep.QueueWaitMS = 0
	}
	rep.BatchSize = batchSize
	rep.RequestID = r.reqID
	if r.tree != nil {
		rep.TraceID = r.tree.TraceID().String()
	}
	return rep
}

// engineStatus maps engine errors to HTTP statuses: cancellation is the
// caller's deadline (504), anything else is a bad device description
// that slipped past validation (422).
func engineStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	if isCanceled(err) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func isCanceled(err error) bool {
	return errors.Is(err, core.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// mergedContext derives a context canceled once every member context is
// done (or when the returned cancel runs): a straggler canceling its
// request must not kill the scoring pass the rest of the batch is
// waiting on, but a fully abandoned batch should stop simulating. A batch
// of one runs under its own request's context.
func mergedContext(batch []*request) (context.Context, context.CancelFunc) {
	if len(batch) == 1 {
		return batch[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(batch)))
	stops := make([]func() bool, 0, len(batch))
	for _, r := range batch {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}
