package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"multidiag/internal/explain"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/tester"
)

// scoreCandidates folds a fully materialized syndrome slice (indexed like
// seeds) seed by seed: the reference implementation the streaming scoring
// pass is checked against.
func scoreCandidates(c *netlist.Circuit, syns []*fsim.Syndrome, seeds []fault.StuckAt, log *tester.Datalog, evIndex map[EvidenceBit]int, numEv int, cfg Config, rec *explain.Recorder) []*Candidate {
	sf := newScoreFolder(c, seeds, log, evIndex, numEv, cfg, rec)
	for si, syn := range syns {
		sf.fold(seeds[si], syn)
	}
	return sf.finish()
}

// renderCandidates canonicalizes a scored-candidate list: class
// representative, scores, equivalence members, coverage members.
func renderCandidates(cands []*Candidate) string {
	var b strings.Builder
	for _, cd := range cands {
		fmt.Fprintf(&b, "%s tfsf=%d tpsf=%d eq=[", cd.Fault.String(), cd.TFSF, cd.TPSF)
		for _, e := range cd.Equivalent {
			fmt.Fprintf(&b, " %s", e.String())
		}
		fmt.Fprintf(&b, " ] cov=%v models=%d\n", cd.Covered.Members(), len(cd.Models))
	}
	return b.String()
}

// TestChunkedFoldMatchesPerSeedScoring pins the tentpole's correctness
// claim at the scoring layer: folding arena-backed syndromes chunk by
// chunk through the parallel engine produces byte-identical candidates —
// same equivalence classes, same merge order, same scores, same coverage —
// as the simple per-seed loop over individually simulated syndromes.
func TestChunkedFoldMatchesPerSeedScoring(t *testing.T) {
	c, pats, log := parallelFixture(t, 700, 3)
	cfg := Config{}
	cfg.fill()

	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	cpt := fsim.NewCPT(c)
	seeds, err := extractCandidates(context.Background(), c, cpt, pats, log, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("fixture produced no candidate seeds")
	}
	evIndex := make(map[EvidenceBit]int)
	var evidence []EvidenceBit
	for _, p := range log.FailingPatterns() {
		for _, po := range log.Fails[p].Members() {
			bit := EvidenceBit{Pattern: p, PO: po}
			evIndex[bit] = len(evidence)
			evidence = append(evidence, bit)
		}
	}

	// Reference: the per-seed loop. Simulated on a private simulator so
	// the retained syndromes never mix with the arena under test.
	ref, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	syns := make([]*fsim.Syndrome, len(seeds))
	for i, f := range seeds {
		syns[i] = ref.SimulateStuckAt(f)
	}
	want := renderCandidates(scoreCandidates(c, syns, seeds, log, evIndex, len(evidence), cfg, nil))

	for _, workers := range []int{1, 2, 4, 8} {
		folder := newScoreFolder(c, seeds, log, evIndex, len(evidence), cfg, nil)
		fs.SimulateStuckAtChunksCtx(context.Background(), seeds, workers, func(start int, chunk []*fsim.Syndrome) {
			for i, syn := range chunk {
				folder.fold(seeds[start+i], syn)
				fs.ReleaseSyndrome(syn)
			}
		})
		if got := renderCandidates(folder.finish()); got != want {
			t.Fatalf("workers=%d: chunked fold differs from per-seed scoring\n--- want\n%s--- got\n%s",
				workers, want, got)
		}
	}
}
