package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"multidiag/internal/atpg"
	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/explain"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// batchDevices injects one defect set per device and returns the datalogs.
func batchDevices(t *testing.T, c *netlist.Circuit, pats []sim.Pattern, devDefects [][]defect.Defect) []*tester.Datalog {
	t.Helper()
	logs := make([]*tester.Datalog, len(devDefects))
	for i, ds := range devDefects {
		dev, err := defect.Inject(c, ds)
		if err != nil {
			t.Fatal(err)
		}
		logs[i], err = tester.ApplyTest(c, dev, pats)
		if err != nil {
			t.Fatal(err)
		}
	}
	return logs
}

// generatedBatch builds a batch on a 300-gate generated circuit: three
// multi-defect devices, the second sharing a defect with the first (so
// their seed lists overlap), a passing device, and a datalog taken on a
// different test set.
func generatedBatch(t *testing.T) (*netlist.Circuit, []sim.Pattern, []*tester.Datalog) {
	t.Helper()
	c, pats, _ := parallelFixture(t, 0, 1)
	var sampled [][]defect.Defect
	for seed := int64(100); len(sampled) < 2; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := defect.Inject(c, ds); err == nil {
			sampled = append(sampled, ds)
		}
	}
	shared := append([]defect.Defect{sampled[0][0]}, sampled[1][:2]...)
	logs := batchDevices(t, c, pats, [][]defect.Defect{sampled[0], shared, {}, sampled[1]})
	malformed := &tester.Datalog{NumPatterns: len(pats) - 1, NumPOs: len(c.POs)}
	return c, pats, append(logs[:3], malformed, logs[3])
}

// TestDiagnoseBatchMatchesSolo is the coalescing correctness pin: a batch
// of devices — overlapping defects (shared seeds), disjoint defects, a
// passing device and a malformed datalog — must produce reports
// bit-identical to diagnosing each device alone, at any worker count,
// with the cone cache off, cold and warm. The generated fixture scores
// hundreds of union seeds, so the streaming fold spans many chunks.
func TestDiagnoseBatchMatchesSolo(t *testing.T) {
	c17 := circuits.C17()
	c17Pats := exhaustivePatterns(5)
	c17Logs := batchDevices(t, c17, c17Pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c17.NetByName("G16"), Value1: false}},
		{{Kind: defect.StuckNet, Net: c17.NetByName("G16"), Value1: false},
			{Kind: defect.StuckNet, Net: c17.NetByName("G10"), Value1: true}},
		{}, // passing device
		{{Kind: defect.StuckNet, Net: c17.NetByName("G23"), Value1: true}},
	})
	genC, genPats, genLogs := generatedBatch(t)
	fixtures := []struct {
		name string
		c    *netlist.Circuit
		pats []sim.Pattern
		logs []*tester.Datalog
	}{
		{"c17", c17, c17Pats, c17Logs},
		{"generated", genC, genPats, genLogs},
	}

	for _, fx := range fixtures {
		solo := make([]string, len(fx.logs))
		for i, log := range fx.logs {
			res, err := Diagnose(fx.c, fx.pats, log, Config{Workers: 1})
			if err == nil {
				solo[i] = renderResult(fx.c, res)
			}
		}
		cc := fsim.NewConeCache(0)
		for _, workers := range []int{1, 4} {
			for _, cache := range []*fsim.ConeCache{nil, cc, cc} { // off, cold, warm
				tr := obs.New("batch")
				results, errs, err := DiagnoseBatch(context.Background(), fx.c, fx.pats, fx.logs,
					Config{Workers: workers, ConeCache: cache, Trace: tr})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", fx.name, workers, err)
				}
				for i := range fx.logs {
					if solo[i] == "" {
						if errs[i] == nil || results[i] != nil {
							t.Fatalf("%s device %d: malformed datalog got res=%v err=%v", fx.name, i, results[i], errs[i])
						}
						continue
					}
					if errs[i] != nil {
						t.Fatalf("%s workers=%d device %d: %v", fx.name, workers, i, errs[i])
					}
					if got := renderResult(fx.c, results[i]); got != solo[i] {
						t.Errorf("%s workers=%d cache=%v device %d: batch report diverges from solo\nbatch:\n%s\nsolo:\n%s",
							fx.name, workers, cache != nil, i, got, solo[i])
					}
				}
				reg := tr.Registry()
				if reg.Counter("core.batch_seed_reuse").Value() == 0 {
					t.Errorf("%s: overlapping devices reused no seed", fx.name)
				}
				if fx.name == "generated" && reg.Counter("core.batch_union_seeds").Value() < 256 {
					t.Errorf("%s: only %d union seeds; the fixture should span many scoring chunks",
						fx.name, reg.Counter("core.batch_union_seeds").Value())
				}
			}
		}
	}
}

// TestDiagnoseBatchOfOneExplainGolden: with one datalog the recorder is
// honoured, and its events are exactly those the single-device engine
// recorded before Diagnose became a batch of one. The goldens were
// recorded from that engine (Workers 2, exact and approximate CPT), and
// every worker count must reproduce them. Regenerate with UPDATE_GOLDEN=1
// only for a deliberate change to the recorder's output.
func TestDiagnoseBatchOfOneExplainGolden(t *testing.T) {
	c, err := circuits.Generate(circuits.GenConfig{Seed: 31, NumPIs: 6, NumGates: 30, NumPOs: 4})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := atpg.Generate(c, atpg.Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var log *tester.Datalog
	for seed := int64(1); log == nil || len(log.Fails) == 0; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 2})
		if err != nil {
			t.Fatal(err)
		}
		if dev, err := defect.Inject(c, ds); err == nil {
			if log, err = tester.ApplyTest(c, dev, tests.Patterns); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, approx := range []bool{false, true} {
		path := filepath.Join("testdata", "explain_exact.jsonl")
		if approx {
			path = filepath.Join("testdata", "explain_approx.jsonl")
		}
		for _, workers := range []int{1, 2, 4} {
			rec := explain.New("golden")
			results, errs, err := DiagnoseBatch(context.Background(), c, tests.Patterns, []*tester.Datalog{log},
				Config{Workers: workers, ApproxCPT: approx, Explain: rec})
			if err != nil || errs[0] != nil || results[0] == nil {
				t.Fatalf("approx=%v workers=%d: res=%v err=%v/%v", approx, workers, results[0], err, errs[0])
			}
			evs, _ := rec.Events()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					t.Fatal(err)
				}
			}
			if os.Getenv("UPDATE_GOLDEN") != "" && workers == 1 {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("approx=%v workers=%d: recorder events differ from %s (%d events)", approx, workers, path, len(evs))
			}
		}
	}
}

// TestDiagnoseBatchSharedCache: batch diagnosis must accept and reuse a
// workload cone cache, and still match solo reports.
func TestDiagnoseBatchSharedCache(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	devDefects := [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	}
	logs := batchDevices(t, c, pats, devDefects)
	cc := fsim.NewConeCache(0)
	results, errs, err := DiagnoseBatch(context.Background(), c, pats, logs, Config{ConeCache: cc})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Diagnose(c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range logs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if got, want := renderResult(c, results[i]), renderResult(c, solo); got != want {
			t.Errorf("device %d cached batch diverges from solo\nbatch:\n%s\nsolo:\n%s", i, got, want)
		}
	}
}

// TestDiagnoseBatchPositionalErrors: a malformed datalog fails its own
// slot without poisoning the rest of the batch.
func TestDiagnoseBatchPositionalErrors(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	})
	bad := &tester.Datalog{NumPatterns: 3, NumPOs: len(c.POs)}
	results, errs, err := DiagnoseBatch(context.Background(), c, pats,
		[]*tester.Datalog{bad, logs[0]}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil || results[0] != nil {
		t.Errorf("malformed device: want positional error, got res=%v err=%v", results[0], errs[0])
	}
	if errs[1] != nil || results[1] == nil {
		t.Errorf("good device: want result, got res=%v err=%v", results[1], errs[1])
	}
	if results[1] != nil && len(results[1].Multiplet) == 0 {
		t.Error("good device diagnosed to an empty multiplet")
	}
}

// TestDiagnoseCtxCanceled: a pre-canceled context aborts before any work
// and surfaces as a wrapped ErrCanceled.
func TestDiagnoseCtxCanceled(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiagnoseCtx(ctx, c, pats, logs[0], Config{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiagnoseCtx: want ErrCanceled, got %v", err)
	}
	if _, _, err := DiagnoseBatch(ctx, c, pats, logs, Config{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiagnoseBatch: want ErrCanceled, got %v", err)
	}
}

// TestDiagnoseCtxUncanceledMatchesDiagnose: with a live context the ctx
// variant is the same engine.
func TestDiagnoseCtxUncanceledMatchesDiagnose(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G10"), Value1: true}},
	})
	a, err := DiagnoseCtx(context.Background(), c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diagnose(c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(c, a), renderResult(c, b); got != want {
		t.Errorf("ctx variant diverges:\n%s\nvs\n%s", got, want)
	}
}
