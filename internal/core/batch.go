// The diagnosis pipeline: DiagnoseBatch, which Diagnose runs on a batch
// of one.

package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"multidiag/internal/explain"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// DiagnoseBatch diagnoses devices of one (circuit, test set) workload in
// one pass: one simulator, one CPT, and one fault-parallel scoring sweep
// over the sorted union of every device's candidate seeds. Evidence and
// extraction run per device. A syndrome depends only on (fault, circuit,
// patterns), never on a datalog, so a seed shared by several devices
// simulates once and each device folds it through its own evidence, in
// its own seed order; cover, refine, the X-masking check and ranking then
// run per device. Each device's Result is therefore bit-identical to what
// Diagnose produces for the same datalog.
//
// Results and errors are positional (results[i] and errs[i] mirror
// logs[i]; at most one of the pair is set, and results[i] only once that
// device's diagnosis is complete). The returned error is reserved for
// whole-run failures — simulator construction or cancellation — in which
// case devices not yet finished have neither. Config.Explain is honoured
// only for a single datalog (events from several devices would interleave
// meaninglessly). A device's Elapsed runs from the start of the pass to
// the end of its own ranking.
func DiagnoseBatch(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, logs []*tester.Datalog, cfg Config) ([]*Result, []error, error) {
	start := time.Now()
	cfg.fill()
	name := "diagnose"
	if len(logs) != 1 {
		name = "diagnose_batch"
		cfg.Explain = nil
	}
	tr := cmp.Or(cfg.Trace, obs.Global())
	r := &run{
		ctx: ctx, c: c, pats: pats, cfg: cfg,
		batch: len(logs) != 1,
		root:  tr.Span(name),
		troot: trace.FromContext(ctx).Start(name),
		reg:   tr.Registry(),
	}
	defer r.root.End()
	defer r.troot.End()
	r.troot.SetInt("devices", int64(len(logs)))
	if r.batch {
		r.reg.Counter("core.batch_devices").Add(int64(len(logs)))
	}

	results := make([]*Result, len(logs))
	errs := make([]error, len(logs))
	var devs []*device
	for i, log := range logs {
		switch {
		case log.NumPatterns != len(pats):
			errs[i] = fmt.Errorf("core: datalog has %d patterns, test set has %d", log.NumPatterns, len(pats))
		case log.NumPOs != len(c.POs):
			errs[i] = fmt.Errorf("core: datalog has %d POs, circuit has %d", log.NumPOs, len(c.POs))
		case len(log.Fails) == 0: // passing device: nothing to explain
			results[i] = &Result{Consistent: true, Elapsed: time.Since(start)}
		default:
			devs = append(devs, &device{i: i, log: log, res: &Result{Consistent: true}})
		}
	}
	if len(devs) == 0 {
		return results, errs, nil
	}

	r.evidence(devs)
	if err := r.goodsim(); err != nil {
		return results, errs, err
	}
	devs, err := r.extract(devs, errs)
	if err != nil {
		return results, errs, err
	}
	if err := r.score(devs); err != nil {
		return results, errs, err
	}
	for _, d := range devs {
		if err := r.finish(d); err != nil {
			errs[d.i] = err
			return results, errs, err
		}
		d.res.Elapsed = time.Since(start)
		results[d.i] = d.res
	}
	return results, errs, nil
}

// run is one pass of the pipeline: the workload, the shared simulators,
// and the instrumentation roots every phase hangs under.
type run struct {
	ctx  context.Context
	c    *netlist.Circuit
	pats []sim.Pattern
	cfg  Config // cfg.Explain is nil unless the pass diagnoses one datalog
	fs   *fsim.FaultSim
	// batch marks a pass over more than one datalog (core.batch_* counters).
	batch bool

	root  obs.Span
	troot trace.Span
	reg   *obs.Registry
}

// device is one failing datalog's state through the pipeline.
type device struct {
	i       int // position in the batch
	log     *tester.Datalog
	res     *Result
	evIndex map[EvidenceBit]int
	seeds   []fault.StuckAt
	folder  *scoreFolder
	cands   []*Candidate
}

// phase is one instrumented pipeline phase. Its three handles open and
// close together: the obs span (aggregate timings and run records), the
// request-trace span, and the prof window, whose labeled ctx carries
// phase=<name> into any worker the phase starts. Each handle is inert
// when its layer is disabled.
type phase struct {
	ctx context.Context
	sp  obs.Span
	tsp trace.Span
	pt  prof.PhaseToken
}

func (r *run) phase(name string) phase {
	sp := r.root.Child(name)
	tsp := r.troot.Start(name)
	ctx, pt := prof.PhaseCtx(r.ctx, name)
	return phase{ctx: ctx, sp: sp, tsp: tsp, pt: pt}
}

func (p phase) end() {
	p.pt.End()
	p.tsp.End()
	p.sp.End()
}

// evidence enumerates each device's per-output evidence universe.
func (r *run) evidence(devs []*device) {
	p := r.phase("evidence")
	bits, failing := 0, 0
	for _, d := range devs {
		d.evIndex = make(map[EvidenceBit]int)
		pats := d.log.FailingPatterns()
		for _, pat := range pats {
			for _, po := range d.log.Fails[pat].Members() {
				bit := EvidenceBit{Pattern: pat, PO: po}
				d.evIndex[bit] = len(d.res.Evidence)
				d.res.Evidence = append(d.res.Evidence, bit)
			}
		}
		bits += len(d.res.Evidence)
		failing += len(pats)
	}
	p.tsp.SetInt("evidence_bits", int64(bits))
	p.tsp.SetInt("failing_patterns", int64(failing))
	p.end()
	if rec := r.cfg.Explain; rec.Enabled() {
		ev := make([]explain.Bit, len(devs[0].res.Evidence))
		for i, b := range devs[0].res.Evidence {
			ev[i] = explain.Bit{Pattern: b.Pattern, PO: b.PO}
		}
		rec.Evidence(ev)
	}
	r.reg.Counter("core.evidence_bits").Add(int64(bits))
	r.reg.Counter("core.failing_patterns").Add(int64(failing))
}

// goodsim adopts Config.SharedSim when it matches the workload, or builds
// the fault simulator (packed fault-free simulation of the test set).
func (r *run) goodsim() error {
	p := r.phase("goodsim")
	fs := r.cfg.SharedSim
	if fs != nil && (fs.Circuit() != r.c || fs.NumPatterns() != len(r.pats)) {
		fs = nil // shape mismatch: fall back to a private simulator
	}
	var err error
	if fs == nil {
		fs, err = fsim.NewFaultSim(r.c, r.pats)
	}
	p.end()
	if err != nil {
		return err
	}
	fs.Observe(r.reg)
	if r.cfg.ConeCache != nil && !fs.AttachCache(r.cfg.ConeCache) {
		r.reg.Counter("fsim.cone_cache_rejected").Inc()
	}
	r.fs = fs
	return checkpoint(r.ctx, "goodsim")
}

// extract runs effect-cause candidate extraction — CPT back-traces of
// every failing output — for each device on one shared tracer, and
// returns the devices it succeeded for (a failure is that device's error).
func (r *run) extract(devs []*device, errs []error) ([]*device, error) {
	var cpt *fsim.CPT
	ok := devs[:0]
	for _, d := range devs {
		p := r.phase("extract")
		if cpt == nil {
			cpt = fsim.NewCPT(r.c)
			cpt.Observe(r.reg)
		}
		seeds, err := extractCandidates(p.ctx, r.c, cpt, r.pats, d.log, r.cfg.ApproxCPT, fsim.Workers(r.cfg.Workers), r.cfg.Explain)
		p.tsp.SetInt("device", int64(d.i))
		p.tsp.SetInt("seeds", int64(len(seeds)))
		p.end()
		if err != nil {
			errs[d.i] = err
			continue
		}
		if err := checkpoint(r.ctx, "extract"); err != nil {
			return nil, err
		}
		d.seeds = seeds
		d.res.CandidatesExtracted = len(seeds)
		r.reg.Counter("core.candidates_extracted").Add(int64(len(seeds)))
		ok = append(ok, d)
	}
	return ok, nil
}

// score simulates every seed by cone-limited fault simulation and folds
// the syndromes into each device's scored candidates. The simulations
// are independent, so the sorted union of the devices' seeds shards
// across the worker pool in contiguous chunks (fsim.parallel span); each
// chunk is folded — on this goroutine, strictly in union order, so every
// device sees its own seeds in its own order — as soon as it completes,
// and each syndrome goes back to the simulator's arena once every device
// has folded it. Live syndromes stay bounded by the worker pool (O(workers
// × chunk)), not by the seed count, however many devices share the pass.
func (r *run) score(devs []*device) error {
	p := r.phase("score")
	var union []fault.StuckAt
	for _, d := range devs {
		union = append(union, d.seeds...)
		d.folder = newScoreFolder(r.c, d.seeds, d.log, d.evIndex, len(d.res.Evidence), r.cfg, r.cfg.Explain)
	}
	seeds := len(union)
	slices.SortFunc(union, compareFaults)
	union = slices.Compact(union)
	if r.batch {
		r.reg.Counter("core.batch_union_seeds").Add(int64(len(union)))
		r.reg.Counter("core.batch_seed_reuse").Add(int64(seeds - len(union)))
	}
	workers := fsim.Workers(r.cfg.Workers)
	p.tsp.SetInt("workers", int64(workers))
	p.tsp.SetInt("union_seeds", int64(len(union)))
	p.tsp.SetInt("seed_reuse", int64(seeds-len(union)))
	r.reg.Gauge("fsim.workers").Set(int64(workers))

	psp := p.sp.Child("fsim.parallel")
	tpsp := p.tsp.Start("fsim.parallel")
	r.fs.SimulateStuckAtChunksCtx(trace.WithSpan(p.ctx, tpsp), union, workers, func(start int, syns []*fsim.Syndrome) {
		for i, syn := range syns {
			for _, d := range devs {
				d.folder.fold(union[start+i], syn)
			}
			r.fs.ReleaseSyndrome(syn)
		}
	})
	tpsp.End()
	psp.End()
	if err := checkpoint(r.ctx, "score"); err != nil {
		p.end()
		return err
	}
	cands := 0
	for _, d := range devs {
		d.cands = d.folder.finish()
		cands += len(d.cands)
		r.reg.Counter("core.candidates_scored").Add(int64(len(d.cands)))
		r.reg.Counter("core.candidates_pruned").Add(int64(len(d.seeds) - len(d.cands)))
	}
	p.tsp.SetInt("candidates", int64(cands))
	p.end()
	return nil
}

// finish runs the per-device tail of the pipeline — greedy per-output
// covering, fault-model refinement, the X-masking consistency check and
// the final ranking — filling the device's Result.
func (r *run) finish(d *device) error {
	c, cfg, rec, res := r.c, r.cfg, r.cfg.Explain, d.res

	// Greedy per-output covering.
	p := r.phase("cover")
	multiplet, uncovered := cover(c, d.cands, len(res.Evidence), cfg, rec)
	p.tsp.SetInt("multiplet", int64(len(multiplet)))
	p.tsp.SetInt("uncovered", int64(uncovered.Count()))
	p.end()
	res.Multiplet = multiplet
	res.UnexplainedBits = uncovered.Count()
	r.reg.Histogram("core.multiplet_size").Observe(int64(len(multiplet)))
	r.reg.Counter("core.unexplained_bits").Add(int64(res.UnexplainedBits))
	if err := checkpoint(r.ctx, "cover"); err != nil {
		return err
	}

	// Fault-model refinement (bridge aggressor search).
	if !cfg.DisableBridgeSearch {
		p = r.phase("refine")
		refineModels(c, r.fs, multiplet, d.evIndex, cfg, r.reg, rec)
		p.end()
		if err := checkpoint(r.ctx, "refine"); err != nil {
			return err
		}
	} else if rec.Enabled() {
		for _, cd := range multiplet {
			rec.Refine(cd.Fault.String(), cd.Name(c), stuckModelFit(cd), explain.VerdictSkipped)
		}
	}

	// X-masking consistency check.
	if !cfg.DisableXConsistency && len(multiplet) > 0 {
		p = r.phase("xcheck")
		res.Consistent, res.InconsistentPatterns = xConsistent(r.fs, multiplet, d.log)
		p.end()
		if !res.Consistent {
			r.reg.Counter("core.xcheck_inconsistent").Inc()
		}
		if rec.Enabled() {
			verdict := explain.VerdictConsistent
			if !res.Consistent {
				verdict = explain.VerdictInconsistent
			}
			for _, cd := range multiplet {
				rec.XCheck(cd.Fault.String(), cd.Name(c), verdict, res.InconsistentPatterns)
			}
		}
	} else if len(multiplet) == 0 {
		res.Consistent = false
	} else if rec.Enabled() {
		for _, cd := range multiplet {
			rec.XCheck(cd.Fault.String(), cd.Name(c), explain.VerdictSkipped, nil)
		}
	}

	// Final ranking: multiplet members first (selection order), then the
	// rest by (TFSF desc, TPSF asc, site).
	inMult := map[*Candidate]bool{}
	for _, m := range multiplet {
		inMult[m] = true
	}
	rest := make([]*Candidate, 0, len(d.cands))
	for _, cd := range d.cands {
		if !inMult[cd] {
			rest = append(rest, cd)
		}
	}
	slices.SortFunc(rest, func(a, b *Candidate) int {
		return cmp.Or(cmp.Compare(b.TFSF, a.TFSF), cmp.Compare(a.TPSF, b.TPSF), compareFaults(a.Fault, b.Fault))
	})
	res.Ranked = append(append([]*Candidate{}, multiplet...), rest...)
	return nil
}
