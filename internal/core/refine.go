package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"multidiag/internal/bitset"
	"multidiag/internal/explain"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// refineModels searches, for each multiplet member, dominant-bridge
// aggressors that fit the member's evidence better than the plain stuck-at
// hypothesis. A dominant bridge victim behaves as a *conditional* stuck-at:
// the victim takes the aggressor's value, so errors appear only on patterns
// where the aggressor carries the complement of the victim's fault-free
// value. When a member shows mispredictions (TPSF > 0), a bridge whose
// aggressor is benignly equal to the victim on those patterns explains the
// same observed failures with fewer contradictions — exactly the evidence
// that distinguishes a short from a hard stuck net.
//
// Accepted bridge models are appended to the member's Models list (best
// first by mispredictions); the seed stuck/open model always remains, since
// logic-level behaviour cannot always separate the mechanisms.
//
// Members are independent victims writing only their own Models list, so
// they shard across goroutines, each with a private re-simulator. The
// recorder hears every member's fit afterwards, in multiplet order.
func refineModels(c *netlist.Circuit, fs *fsim.FaultSim, multiplet []*Candidate, evIndex map[EvidenceBit]int, cfg Config, reg *obs.Registry, rec *explain.Recorder) {
	fits := make([][]explain.ModelFit, len(multiplet))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(fsim.Workers(cfg.Workers), len(multiplet)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sim.New(c)
			for i := int(next.Add(1)) - 1; i < len(multiplet); i = int(next.Add(1)) - 1 {
				fits[i] = refineMember(c, fs, s, multiplet[i], evIndex, cfg, reg, rec.Enabled())
			}
		}()
	}
	wg.Wait()
	if rec.Enabled() {
		for i, cd := range multiplet {
			rec.Refine(cd.Fault.String(), cd.Name(c), fits[i], explain.VerdictScored)
		}
	}
}

// refineMember runs the aggressor search for one multiplet member. With
// attribute set it returns the member's model fits for the recorder.
func refineMember(c *netlist.Circuit, fs *fsim.FaultSim, s *sim.Simulator, cd *Candidate, evIndex map[EvidenceBit]int, cfg Config, reg *obs.Registry, attribute bool) []explain.ModelFit {
	tested := reg.Counter("core.bridge_aggressors_tested")
	accepted := reg.Counter("core.bridge_models_accepted")
	force := make(map[netlist.NetID]logic.PV64, 1)
	victim := cd.Fault.Net
	aggressors := bridgeAggressors(c, victim, cfg)
	if len(aggressors) == 0 {
		if attribute {
			return stuckModelFit(cd)
		}
		return nil
	}
	tested.Add(int64(len(aggressors)))
	type fit struct {
		aggr    netlist.NetID
		covered int
		tpsf    int
	}
	var fits []fit
	for _, a := range aggressors {
		cov, tpsf := bridgeFit(c, fs, s, victim, a, evIndex, force)
		if cov == 0 {
			continue
		}
		// The bridge must reproduce at least the evidence the stuck-at
		// hypothesis covers (otherwise it is a worse explanation) and
		// strictly reduce mispredictions to be worth reporting.
		if cov >= cd.TFSF && tpsf < cd.TPSF {
			fits = append(fits, fit{aggr: a, covered: cov, tpsf: tpsf})
		}
	}
	sort.Slice(fits, func(i, j int) bool {
		if fits[i].tpsf != fits[j].tpsf {
			return fits[i].tpsf < fits[j].tpsf
		}
		if fits[i].covered != fits[j].covered {
			return fits[i].covered > fits[j].covered
		}
		return fits[i].aggr < fits[j].aggr
	})
	const maxBridgeModels = 3
	for i, f := range fits {
		if i >= maxBridgeModels {
			break
		}
		cd.Models = append(cd.Models, Model{Kind: BridgeModel, Aggressor: f.aggr, Mispredictions: f.tpsf})
		accepted.Inc()
	}
	// Keep the best-fitting model first.
	sort.SliceStable(cd.Models, func(i, j int) bool {
		return cd.Models[i].Mispredictions < cd.Models[j].Mispredictions
	})
	if !attribute {
		return nil
	}
	// Report the refined model list in ranked order, carrying the
	// bridgeFit coverage statistic for each accepted aggressor.
	covByAggr := make(map[netlist.NetID]int, len(fits))
	for _, f := range fits {
		covByAggr[f.aggr] = f.covered
	}
	mf := make([]explain.ModelFit, 0, len(cd.Models))
	for _, m := range cd.Models {
		switch m.Kind {
		case BridgeModel:
			mf = append(mf, explain.ModelFit{Kind: m.Kind.String(),
				Aggressor: c.NameOf(m.Aggressor), Covered: covByAggr[m.Aggressor], Mispred: m.Mispredictions})
		default:
			mf = append(mf, explain.ModelFit{Kind: m.Kind.String(),
				Covered: cd.TFSF, Mispred: m.Mispredictions})
		}
	}
	return mf
}

// stuckModelFit renders a candidate's models as explain fit records when
// no bridge search ran (the seed stuck/open model only).
func stuckModelFit(cd *Candidate) []explain.ModelFit {
	mf := make([]explain.ModelFit, 0, len(cd.Models))
	for _, m := range cd.Models {
		mf = append(mf, explain.ModelFit{Kind: m.Kind.String(), Covered: cd.TFSF, Mispred: m.Mispredictions})
	}
	return mf
}

// bridgeAggressors enumerates plausible aggressor nets for a victim:
// structurally independent nets within the configured level window,
// deterministically ordered, capped by config.
func bridgeAggressors(c *netlist.Circuit, victim netlist.NetID, cfg Config) []netlist.NetID {
	vLevel := c.Gates[victim].Level
	inCone := c.FaninCone(victim)
	outCone := c.FanoutCone(victim)
	var out []netlist.NetID
	for i := range c.Gates {
		n := netlist.NetID(i)
		if n == victim || inCone[n] || outCone[n] {
			continue
		}
		dl := c.Gates[n].Level - vLevel
		if dl < -cfg.BridgeLevelWindow || dl > cfg.BridgeLevelWindow {
			continue
		}
		out = append(out, n)
		if len(out) >= cfg.MaxAggressorsPerVictim {
			break
		}
	}
	return out
}

// bridgeFit simulates a dominant bridge (victim ← aggressor) over the test
// set and returns (covered evidence bits, mispredicted bits). The forced
// victim value per packed word is the aggressor's fault-free word, which is
// exactly the dominant-bridge semantics. The packed PI vectors come from
// the fault simulator's construction-time packing (no re-pack per
// hypothesis); force is caller scratch reused across aggressors.
func bridgeFit(c *netlist.Circuit, fs *fsim.FaultSim, s *sim.Simulator, victim, aggressor netlist.NetID, evIndex map[EvidenceBit]int, force map[netlist.NetID]logic.PV64) (covered, tpsf int) {
	pats := fs.Patterns()
	for base := 0; base < len(pats); base += logic.W {
		// Aggressor fault-free word comes from the cached good simulation.
		force[victim] = fs.GoodWord(aggressor, base/logic.W)
		if err := s.RunWithOverrides(fs.PIWord(base/logic.W), force); err != nil {
			return 0, 0
		}
		for i, po := range c.POs {
			goodWord := fs.GoodWord(po, base/logic.W)
			diff := s.Value(po).DiffKnown(goodWord)
			if diff == 0 {
				continue
			}
			for slot := uint(0); slot < logic.W; slot++ {
				p := base + int(slot)
				if p >= len(pats) {
					break
				}
				if diff>>slot&1 == 1 {
					if _, ok := evIndex[EvidenceBit{Pattern: p, PO: i}]; ok {
						covered++
					} else {
						tpsf++
					}
				}
			}
		}
	}
	return covered, tpsf
}

// EvidenceSet converts a datalog into the evidence bitset layout used by a
// Result (exported for the experiment harness and tests).
func EvidenceSet(log *tester.Datalog) ([]EvidenceBit, bitset.Set) {
	var bits []EvidenceBit
	for _, p := range log.FailingPatterns() {
		for _, po := range log.Fails[p].Members() {
			bits = append(bits, EvidenceBit{Pattern: p, PO: po})
		}
	}
	all := bitset.New(len(bits))
	for i := range bits {
		all.Add(i)
	}
	return bits, all
}
