package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"multidiag/internal/atpg"
	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/exp"
	"multidiag/internal/metrics"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/volume"
)

// workloadName is the registered workload every benchmark workload runs on.
const workloadName = "b1000"

// defectsPerDevice is the multi-defect regime the paper evaluates.
const defectsPerDevice = 3

// fixture is the b1000 circuit with its ATPG test set.
type fixture struct {
	c    *netlist.Circuit
	pats []sim.Pattern
}

// buildB1000 rebuilds the b1000 workload from scratch. exp.NamedWorkload
// memoizes per process, so repeated set-up timings need this uncached
// replica; checkFixture proves it matches the registered workload.
func buildB1000() (*fixture, error) {
	c, err := circuits.Generate(circuits.GenConfig{Name: workloadName, Seed: 1000, NumPIs: 24, NumGates: 1000, NumPOs: 20})
	if err != nil {
		return nil, err
	}
	res, err := atpg.Generate(c, atpg.Config{Seed: 7})
	if err != nil {
		return nil, err
	}
	return &fixture{c: c, pats: res.Patterns}, nil
}

// checkFixture fails when the replica differs from exp.NamedWorkload.
func checkFixture(fx *fixture) error {
	wl, err := exp.NamedWorkload(workloadName)
	if err != nil {
		return err
	}
	if wl.Circuit.NumGates() != fx.c.NumGates() || len(wl.Circuit.POs) != len(fx.c.POs) ||
		!reflect.DeepEqual(wl.Patterns, fx.pats) {
		return fmt.Errorf("rebuilt %s differs from exp.NamedWorkload", workloadName)
	}
	return nil
}

// device is one generated defective die: its injected defects and the
// datalog a tester would record for it.
type device struct {
	defects []defect.Defect
	log     *tester.Datalog
	text    string // tester.WriteDatalog serialization
}

// samplesPerCall is how many devices' defects one defect.Sample call
// draws. Each call enumerates the circuit's bridge candidates (~35 ms on
// b1000), so devices take their defects in consecutive triples from one
// larger draw; the only difference from one call per device is that the
// devices of one draw never share a defect site.
const samplesPerCall = 8

// makeDevices returns n failing devices with distinct syndromes. It draws
// strata×n candidates, sorts them by failing-bit count and keeps the
// middle candidate of each run of strata, so the set's size mix follows
// the defect population rather than one seed's luck; the cost of every
// layer grows with a device's failing bits. Devices that no pattern
// detects, or that repeat an earlier syndrome, are dropped.
func makeDevices(fx *fixture, seed int64, n, strata int) ([]*device, error) {
	r := rand.New(rand.NewSource(seed))
	seen := map[volume.Fingerprint]bool{}
	var cands []*device
	for calls := 0; len(cands) < n*strata; calls++ {
		if calls > 4*n*strata/samplesPerCall+10 {
			return nil, fmt.Errorf("could not sample %d distinct failing devices", n*strata)
		}
		defs, err := defect.Sample(fx.c, defect.CampaignConfig{Seed: r.Int63(), NumDefects: defectsPerDevice * samplesPerCall})
		if err != nil {
			return nil, err
		}
		for i := 0; i+defectsPerDevice <= len(defs) && len(cands) < n*strata; i += defectsPerDevice {
			d, err := newDevice(fx, defs[i:i+defectsPerDevice:i+defectsPerDevice])
			if errors.Is(err, errNotInjectable) {
				continue // bridges that compose into a cycle, as internal/exp skips
			}
			if err != nil {
				return nil, err
			}
			fp := volume.FingerprintDatalog(workloadName, d.log)
			if len(d.log.FailingPatterns()) == 0 || seen[fp] {
				continue
			}
			seen[fp] = true
			cands = append(cands, d)
		}
	}
	if strata == 1 {
		return cands, nil
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].log.NumFailBits() < cands[j].log.NumFailBits() })
	out := make([]*device, n)
	for i := range out {
		out[i] = cands[i*strata+strata/2]
	}
	// Back to a seeded order, so set position does not follow size.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// errNotInjectable marks a defect set defect.Inject refuses, such as
// bridges whose composition forms a combinational cycle.
var errNotInjectable = errors.New("defect set cannot be injected")

// newDevice injects defs into the circuit and records its datalog.
func newDevice(fx *fixture, defs []defect.Defect) (*device, error) {
	dut, err := defect.Inject(fx.c, defs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotInjectable, err)
	}
	log, err := tester.ApplyTest(fx.c, dut, fx.pats)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tester.WriteDatalog(&buf, log); err != nil {
		return nil, err
	}
	return &device{defects: defs, log: log, text: buf.String()}, nil
}

// regionAccuracy scores a reported multiplet against the injected defects
// with metrics.EvaluateRegion at radius 1, the experiment suite's default.
func regionAccuracy(c *netlist.Circuit, d *device, multiplet [][]netlist.NetID) float64 {
	cands := make([]metrics.Candidate, len(multiplet))
	for i, nets := range multiplet {
		cands[i] = metrics.Candidate{Nets: nets}
	}
	return metrics.EvaluateRegion(c, d.defects, cands, 1).Accuracy()
}

// reportNets recovers each multiplet member's nets from a wire report —
// the representative, its equivalence class and any bridge aggressor —
// which is what core.Candidate.Nets returns for the same candidate.
func reportNets(c *netlist.Circuit, rep *volume.Report) ([][]netlist.NetID, error) {
	site := func(name string) (netlist.NetID, error) {
		if i := strings.LastIndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		id := c.NetByName(name)
		if id == netlist.InvalidNet {
			return 0, fmt.Errorf("report names unknown net %q", name)
		}
		return id, nil
	}
	out := make([][]netlist.NetID, len(rep.Multiplet))
	for i, cr := range rep.Multiplet {
		names := append([]string{cr.Name}, cr.Equivalent...)
		for _, m := range cr.Models {
			if m.Aggressor != "" {
				names = append(names, m.Aggressor)
			}
		}
		for _, n := range names {
			id, err := site(n)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], id)
		}
	}
	return out, nil
}
