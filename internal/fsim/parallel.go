// Fault-parallel execution: candidate fault simulations are independent
// (each reads the shared packed fault-free state and writes only its own
// syndrome), so a fault list shards across a bounded worker pool. Work is
// claimed in contiguous chunks sized so the shared atomic index is touched
// on the order of a hundred times per batch — not once per fault — which
// keeps the index off the coherence hot path while still load-balancing
// uneven cone sizes. Each worker owns a forked simulator — private scratch
// words, shared immutable state, shared atomic counters — so no locks sit
// on the per-gate hot path; the only shared mutable structures are the
// optional ConeCache (locked per shard) and the syndrome arena (a
// mutex-guarded free list). Results are merged by fault index, and the chunk-fold API
// delivers chunks in ascending order, so output is bit-identical to a
// sequential run regardless of worker count or scheduling.
package fsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/prof"
	"multidiag/internal/trace"
)

// Workers resolves a worker-count knob: values ≤ 0 select GOMAXPROCS (the
// -j CLI default), anything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// batchTargetClaims is the aimed-for number of atomic work-index claims
// per batch: few enough that the index never contends, many enough (≥ 8×
// a typical worker count) that uneven per-fault cone sizes still balance.
const batchTargetClaims = 128

// batchChunkSize returns the contiguous chunk length workers claim from
// the shared index for an n-fault batch.
func batchChunkSize(n, workers int) int {
	size := (n + batchTargetClaims - 1) / batchTargetClaims
	if size < 1 {
		size = 1
	}
	// Never let a single chunk exceed an even worker share, or the tail
	// of the batch serializes behind one worker.
	if workers > 1 {
		if max := (n + workers - 1) / workers; size > max {
			size = max
		}
	}
	return size
}

// Fork returns a simulator sharing fs's immutable packed state (fault-free
// words, packed PI vectors, pattern set, PO index, syndrome arena,
// attached cache and observability counters) with private propagation
// scratch. The fork and its parent may simulate concurrently; neither is
// individually safe for concurrent use by multiple goroutines. Prefer
// AcquireFork/ReleaseFork on repeated batches — it recycles fork scratch
// through the root's free list.
func (fs *FaultSim) Fork() *FaultSim {
	return &FaultSim{
		c:       fs.c,
		pats:    fs.pats,
		words:   fs.words,
		piWords: fs.piWords,
		nWords:  fs.nWords,
		cur:     make([]logic.PV64, fs.c.NumGates()),
		inCone:  make([]bool, fs.c.NumGates()),
		poIndex: fs.poIndex,
		cache:   fs.cache,
		arena:   fs.arena,
		rootSim: fs.root(),

		statSims:      fs.statSims,
		statConeEvals: fs.statConeEvals,
		statXWords:    fs.statXWords,
		statConeSize:  fs.statConeSize,
	}
}

// SimulateStuckAtBatch simulates every fault and returns the syndromes in
// input order (out[i] corresponds to faults[i]), sharding chunks of the
// list across min(workers, len(faults)) goroutines (workers ≤ 0 selects
// GOMAXPROCS; 1 runs inline on the receiver). The syndromes are
// arena-backed: callers that fold and discard them should hand each back
// via ReleaseSyndrome.
func (fs *FaultSim) SimulateStuckAtBatch(faults []fault.StuckAt, workers int) []*Syndrome {
	out := make([]*Syndrome, len(faults))
	fs.SimulateStuckAtChunksCtx(context.Background(), faults, workers, func(start int, syns []*Syndrome) {
		copy(out[start:], syns)
	})
	return out
}

// chunkResult is one completed contiguous chunk in flight to the folder.
type chunkResult struct {
	idx  int // chunk ordinal (idx*size = first fault index)
	syns []*Syndrome
}

// SimulateStuckAtChunksCtx simulates faults across the worker pool and
// calls fold once per contiguous chunk, in ascending fault order:
// fold(start, syns) covers faults[start : start+len(syns)]. Delivering in
// order is what lets a caller fold incrementally — equivalence classes,
// tie-breaks — and stay bit-identical to a sequential per-seed loop at any
// worker count. fold runs on the calling goroutine; the syns slice is
// reused after fold returns, so fold must not retain it (retaining the
// syndromes themselves is fine — release them with ReleaseSyndrome when
// folded, or keep them and let the arena refill).
//
// Cancellation is observed between faults: once ctx is done no further
// fault starts simulating, completed leading chunks still fold, and the
// caller sees ctx.Err() != nil.
func (fs *FaultSim) SimulateStuckAtChunksCtx(ctx context.Context, faults []fault.StuckAt, workers int, fold func(start int, syns []*Syndrome)) {
	n := len(faults)
	if n == 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// When the context carries a span tree, each worker's share gets a
	// "fsim.worker" span attributing its fault count and cone-cache probe
	// outcomes (fork-local deltas — see FaultSim.probeHits). Inert handles
	// when tracing is off: no branches, no allocations.
	// When the prof collector is enabled, each worker body additionally
	// runs under a worker=<n> pprof label (on top of the phase/workload
	// labels the context already carries), so a CPU profile slices down to
	// individual pool workers; prof.DoWorker calls the body directly when
	// profiling is off.
	tsc := trace.FromContext(ctx)
	if workers <= 1 {
		prof.DoWorker(ctx, 0, func(ctx context.Context) {
			tsp := tsc.Start("fsim.worker")
			tsp.SetInt("worker", 0)
			h0, m0 := fs.probeHits, fs.probeMisses
			size := batchChunkSize(n, 1)
			done := 0
			buf := make([]*Syndrome, 0, size)
			for start := 0; start < n && ctx.Err() == nil; start += size {
				end := start + size
				if end > n {
					end = n
				}
				buf = buf[:0]
				for i := start; i < end; i++ {
					if ctx.Err() != nil {
						break
					}
					buf = append(buf, fs.SimulateStuckAt(faults[i]))
					done++
				}
				fold(start, buf)
			}
			tsp.SetInt("faults", int64(done))
			tsp.SetInt("cache_hits", fs.probeHits-h0)
			tsp.SetInt("cache_misses", fs.probeMisses-m0)
			tsp.End()
		})
		return
	}

	size := batchChunkSize(n, workers)
	nChunks := (n + size - 1) / size
	// In-flight work is bounded by a claim semaphore, not by the results
	// channel: the folder must drain the channel unconditionally (an
	// out-of-order chunk parks in `pending` until the gap fills, and a
	// blocked send from the gap's worker would deadlock an at-capacity
	// channel), so channel capacity alone cannot stop workers from racing
	// hundreds of chunks ahead of a folder stalled on one descheduled
	// worker. Instead a worker takes a token before claiming a chunk and
	// the folder returns it when that chunk folds, capping
	// claimed-but-unfolded chunks at 2× workers — the live-syndrome
	// population (the arena's working set) stays O(workers × chunk)
	// instead of O(faults). No deadlock: finishing a claimed chunk never
	// needs a token, so the gap's worker always completes and unblocks the
	// fold loop.
	inflight := workers * 2
	tokens := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		tokens <- struct{}{}
	}
	results := make(chan chunkResult, inflight)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sim := fs
		if w > 0 {
			sim = fs.AcquireFork()
		}
		wg.Add(1)
		go func(w int, sim *FaultSim) {
			defer wg.Done()
			if w > 0 {
				defer fs.ReleaseFork(sim)
			}
			prof.DoWorker(ctx, w, func(ctx context.Context) {
				tsp := tsc.Start("fsim.worker")
				tsp.SetInt("worker", int64(w))
				h0, m0 := sim.probeHits, sim.probeMisses
				done, claims := 0, 0
				for ctx.Err() == nil {
					select {
					case <-tokens:
					case <-ctx.Done():
					}
					if ctx.Err() != nil {
						break
					}
					ci := int(next.Add(1)) - 1
					if ci >= nChunks {
						break
					}
					claims++
					start := ci * size
					end := start + size
					if end > n {
						end = n
					}
					syns := make([]*Syndrome, 0, end-start)
					for i := start; i < end; i++ {
						if ctx.Err() != nil {
							break
						}
						syns = append(syns, sim.SimulateStuckAt(faults[i]))
						done++
					}
					results <- chunkResult{idx: ci, syns: syns}
				}
				tsp.SetInt("faults", int64(done))
				tsp.SetInt("chunks", int64(claims))
				tsp.SetInt("cache_hits", sim.probeHits-h0)
				tsp.SetInt("cache_misses", sim.probeMisses-m0)
				tsp.End()
			})
		}(w, sim)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered fold on the calling goroutine: buffer out-of-order chunks
	// until the next expected ordinal lands, then drain the run. Chunks a
	// cancellation left incomplete (or never produced) leave a gap; folds
	// stop at the first gap, exactly like the sequential loop stopping
	// mid-list.
	pending := make(map[int][]*Syndrome, workers*2)
	nextFold := 0
	halted := false
	for r := range results {
		pending[r.idx] = r.syns
		for !halted {
			syns, ok := pending[nextFold]
			if !ok {
				break
			}
			delete(pending, nextFold)
			fold(nextFold*size, syns)
			// Folding a chunk frees its claim token, admitting the next
			// chunk claim. Never blocks: the channel holds at most the
			// tokens workers took out.
			tokens <- struct{}{}
			// A chunk cut short by cancellation ends the contiguous prefix;
			// anything after it would leave a hole mid-list.
			if nextFold*size+len(syns) < min((nextFold+1)*size, n) {
				halted = true
			}
			nextFold++
		}
	}
	// Cancellation can leave chunks complete behind a gap or a halt; their
	// syndromes go back to the arena rather than leaking to the GC.
	for _, syns := range pending {
		for _, s := range syns {
			fs.ReleaseSyndrome(s)
		}
	}
}
