package serve

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"multidiag/internal/tester"
	"multidiag/internal/trace"
	"multidiag/internal/volume"
)

// ingestTop is the ranked-candidate tail bound for ingest-path reports,
// matching the interactive default so cached entries are interchangeable
// between paths.
const ingestTop = 10

// maxIngestErrors bounds the per-record error sample in the reply.
const maxIngestErrors = 8

// IngestReply is the POST /v1/ingest response: per-record outcome
// counts. Record order is preserved nowhere here — the deterministic
// view of an ingested fleet is GET /v1/volume/summary.
type IngestReply struct {
	// Records is every syntactically valid record seen; Deduped those
	// answered without their own engine run (cache hit or coalesced);
	// Diagnosed the engine runs; Shed the admission rejections; Failed
	// the per-record errors (bad workload, malformed datalog, engine
	// error).
	Records   int `json:"records"`
	Deduped   int `json:"deduped"`
	Diagnosed int `json:"diagnosed"`
	Shed      int `json:"shed"`
	Failed    int `json:"failed"`
	// Errors samples the first few per-record error messages.
	Errors []string `json:"errors,omitempty"`
}

// ingestBytesKey carries one record's admission byte weight from the
// ingest handler to the enqueue-and-wait DiagFunc below.
type ingestBytesKey struct{}

// shedError marks a dedupe miss that admission refused; the ingest
// handler counts it instead of failing the stream.
type shedError struct{ status int }

func (e *shedError) Error() string {
	return fmt.Sprintf("admission shed (%d %s)", e.status, http.StatusText(e.status))
}

// volumeDiag builds the workload's ingest DiagFunc: a dedupe miss is
// admitted like any interactive request — same inflight/bytes/queue
// caps, same micro-batcher (so concurrent distinct syndromes coalesce
// into shared scoring passes), same panic isolation — and the response's
// deterministic report core is what the fingerprint cache stores.
func (s *Server) volumeDiag(w *workload) volume.DiagFunc {
	return func(ctx context.Context, log *tester.Datalog) (*volume.Report, error) {
		bytes, _ := ctx.Value(ingestBytesKey{}).(int64)
		req := newRequest(ctx, log, ingestTop, bytes)
		if sc := trace.FromContext(ctx); sc.Enabled() {
			req.tree = sc.Tree()
			req.span = sc.Start("serve.ingest.diagnose")
			defer req.span.End()
		}
		req.queueSpan = req.span.Start("serve.queue")
		if status := s.admit(w, req); status != 0 {
			req.queueSpan.End()
			return nil, &shedError{status: status}
		}
		defer s.release(req)
		select {
		case resp := <-req.done:
			if resp.err != nil {
				return nil, resp.err
			}
			return &resp.report.Report, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// handleIngest streams a JSONL record stream (see volume.Record; gzip
// bodies accepted via Content-Encoding) through each workload's dedupe
// front. The reader stays bounded-memory: records fan into a window of
// worker goroutines and the stream is read no faster than the window
// drains; past the window, admission caps shed per record (partial
// ingest answers 200 with counts; a fully shed stream answers 429 with
// Retry-After, the client's signal to back off and resend).
func (s *Server) handleIngest(rw http.ResponseWriter, r *http.Request) {
	defaultWl := r.URL.Query().Get("workload")
	body := http.MaxBytesReader(rw, r.Body, maxRequestBytes)
	var stream = body
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(body)
		if err != nil {
			httpError(rw, http.StatusBadRequest, fmt.Sprintf("bad gzip body: %v", err))
			return
		}
		defer gz.Close()
		stream = gz
	}

	tree, root := s.startTrace(rw, r, "/v1/ingest", defaultWl)
	ctx, cancel := s.requestContext(trace.WithSpan(r.Context(), root), 0)
	defer cancel()

	var (
		mu        sync.Mutex
		reply     IngestReply
		shedCode  int
		wg        sync.WaitGroup
		window    = make(chan struct{}, s.cfg.MaxInflight)
		tsModes   = map[string]int{} // workload → 1 ordinal, 2 timestamp
		failLocal = func(line int, err error) {
			mu.Lock()
			reply.Failed++
			if len(reply.Errors) < maxIngestErrors {
				reply.Errors = append(reply.Errors, fmt.Sprintf("line %d: %v", line, err))
			}
			mu.Unlock()
		}
	)
	rr := volume.NewRecordReader(stream)
	for {
		rec, n, err := rr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				failLocal(rr.Line(), err)
			}
			break
		}
		reply.Records++ // reader-side; workers never touch it
		name := rec.Workload
		if name == "" {
			name = defaultWl
		}
		w, ok := s.workloads[name]
		if !ok {
			failLocal(rr.Line(), fmt.Errorf("unknown workload %q (see /v1/workloads)", name))
			continue
		}
		mode := 1
		if rec.TS != 0 {
			mode = 2
		}
		if prev, seen := tsModes[name]; !seen {
			tsModes[name] = mode
		} else if prev != mode {
			failLocal(rr.Line(), fmt.Errorf("stream mixes timestamped and untimestamped records"))
			continue
		}
		log, err := rec.BuildDatalog(w.c, len(w.pats))
		if err != nil {
			failLocal(rr.Line(), err)
			continue
		}
		ord := w.volOrd.Add(1) - 1
		bucket := ord / int64(s.cfg.VolumeTrendBucket)
		if mode == 2 {
			bucket = rec.TS / int64(s.cfg.VolumeTrendBucket)
		}
		s.reg.Counter("serve.ingest_records").Inc()

		acquired := false
		select {
		case window <- struct{}{}:
			acquired = true
		case <-ctx.Done():
		}
		if !acquired {
			failLocal(rr.Line(), ctx.Err())
			break
		}
		wg.Add(1)
		go func(rec *volume.Record, log *tester.Datalog, bucket, bytes int64) {
			defer wg.Done()
			defer func() { <-window }()
			dctx := context.WithValue(ctx, ingestBytesKey{}, bytes)
			entry, hit, err := w.vol.Process(dctx, log)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if se, ok := err.(*shedError); ok {
					reply.Shed++
					if shedCode == 0 {
						shedCode = se.status
					}
					return
				}
				reply.Failed++
				if len(reply.Errors) < maxIngestErrors {
					reply.Errors = append(reply.Errors, fmt.Sprintf("device %q: %v", rec.DeviceID, err))
				}
				return
			}
			if hit {
				reply.Deduped++
			} else {
				reply.Diagnosed++
			}
			w.volAgg.Add(rec.Site, bucket, entry)
		}(rec, log, bucket, int64(n))
	}
	wg.Wait()

	status := http.StatusOK
	switch {
	case reply.Records == 0:
		s.finishTrace(tree, root, http.StatusBadRequest)
		httpError(rw, http.StatusBadRequest, "ingest stream carries no records")
		return
	case reply.Shed == reply.Records:
		// Nothing got through: tell the client to back off and resend the
		// whole stream.
		status = shedCode
		tree.Flag("shed")
		s.noteFlagged("shed", r.Header.Get("X-Request-ID"))
		if status == http.StatusTooManyRequests {
			rw.Header().Set("Retry-After", "1")
		}
	}
	s.finishTrace(tree, root, status)
	writeJSON(rw, status, &reply)
}

// handleVolumeSummary emits a workload's fleet aggregate — the
// deterministic JSON the CLI's -summary-out also writes, so the two
// ingest paths diff cleanly (the vol-smoke gate does exactly that).
func (s *Server) handleVolumeSummary(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("workload")
	w, ok := s.workloads[name]
	if !ok {
		httpError(rw, http.StatusNotFound, fmt.Sprintf("unknown workload %q (see /v1/workloads)", name))
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := volume.WriteSummary(rw, w.volAgg.Summary()); err != nil {
		s.reg.Counter("serve.errors").Inc()
	}
}
