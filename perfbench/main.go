// Command perfbench is multidiag's end-to-end and per-layer benchmark on
// the b1000 workload (1024 gates, 62 patterns). It drives the program
// only through its public entry points and layer functions (core, fsim,
// tester, volume, serve), checks every output against a direct
// core.Diagnose, and prints one JSON result object as its last line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it; BENCHMARK.json names the workloads and metrics, README.md explains
// them.
//
//	perfbench --workload engine-b1000 --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// holdoutSeed is the seed kept out of tuning: a later gain claim must
// hold on it as well as on the seeds it was measured with.
const holdoutSeed = 7777

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, because a single build's wall time swings by a third.
const setupReps = 7

// opts is one run's configuration.
type opts struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    *recorder // nil on untraced runs
	cal      *calibrator
	stateDir string
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
	// repeat holds values that are a pure function of the seed and the
	// program; they must read the same on every run of that seed.
	repeat map[string]float64
	// detail is printed before the result line: tail percentiles, counts.
	detail map[string]any
	// unscaled names end-to-end metrics of hostScaled that this workload
	// reports as measured, because they do not follow the host's speed.
	unscaled map[string]bool
}

func newResult() *result {
	return &result{
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		repeat:   map[string]float64{},
		detail:   map[string]any{},
		unscaled: map[string]bool{},
	}
}

// fail records a failed operation and says why on stderr.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations with one message.
func (r *result) failN(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(*opts) (*result, error){
	"engine-b1000": runEngine,
	"volume-warm":  runVolume,
	"serve-open":   runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "engine-b1000, volume-warm or serve-open")
	seed := fl.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 25, "measured duration of one run")
	traced := fl.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	stateDir := os.Getenv("CARGO_TARGET_DIR")
	if stateDir == "" {
		stateDir = ".bench_build"
	}
	o := &opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, stateDir: stateDir, cal: newCalibrator()}
	if o.trace {
		o.spans = newRecorder()
	}

	prov, err := provenance(*workload, o)
	if err != nil {
		return err
	}
	if err := printLine(stdout, map[string]any{"provenance": prov}); err != nil {
		return err
	}

	t0 := time.Now()
	o.cal.start()
	res, err := fn(o)
	steal := o.cal.steal.frac(t0, time.Now())
	o.cal.stop()
	if err != nil {
		return err
	}
	res.detail["run_s"] = time.Since(t0).Seconds()
	scaleToReference(res, o.cal)
	res.detail["steal_frac"] = steal
	correct := res.failed == 0 && res.attempted > 0
	if err := checkRepeat(o, *workload, prov["source_sha256"].(string), res.repeat); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: NOT REPEATABLE:", err)
		correct = false
	}
	if o.trace {
		path := filepath.Join(stateDir, "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := o.spans.write(path); err != nil {
			return err
		}
		res.detail["spans_file"] = path
	}

	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("workload %s did not measure %s", *workload, d.name)
			}
			v = 0 // the workload does not call this layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if err := printLine(stdout, map[string]any{"detail": res.detail}); err != nil {
		return err
	}
	return printLine(stdout, map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
}

// hostScaled names the end-to-end metrics that follow the host's speed,
// with the power of the calibration scale that undoes it: -1 for times,
// +1 for rates. The workloads have already taken steal out of the wall
// times these derive from (stealMeter.unstolen).
var hostScaled = map[string]float64{
	"setup_s":           -1,
	"devices_per_s":     1,
	"cpu_ms_per_device": -1,
	"latency_p50_ms":    -1,
	"latency_tail_ms":   -1,
}

// scaleToReference rescales the host-speed-dependent end-to-end metrics
// to the calibration's reference host, and keeps the values before
// scaling and the scale in the detail line.
func scaleToReference(res *result, cal *calibrator) {
	s := cal.scale()
	measured := map[string]float64{}
	for name, pow := range hostScaled {
		if v, ok := res.e2e[name]; ok && !res.unscaled[name] {
			measured[name] = v
			res.e2e[name] = v * math.Pow(s, pow)
		}
	}
	res.detail["host_scale"] = s
	res.detail["calibration_chunks"] = len(cal.samples)
	res.detail["before_speed_scale"] = measured
}

func printLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// provenance names the host, toolchain and code a result came from.
func provenance(workload string, o *opts) (map[string]any, error) {
	digest, err := sourceDigest()
	if err != nil {
		return nil, err
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":      workload,
		"seed":          o.seed,
		"holdout_seed":  holdoutSeed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"source_sha256": digest,
	}, nil
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and module files, so a
// result names its code even in a checkout without git metadata.
func sourceDigest() (string, error) {
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkRepeat compares the seed-determined values with those an earlier
// run of the same code, workload, seed and duration stored, and stores
// them. The duration is part of the key because serve-open's device set
// grows with it.
func checkRepeat(o *opts, workload, digest string, vals map[string]float64) error {
	path := filepath.Join(o.stateDir, "perfbench-repeat", fmt.Sprintf("%s-%s-seed%d-%gs.json", digest, workload, o.seed, o.seconds.Seconds()))
	stored := map[string]float64{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &stored); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	changed := false
	for k, v := range vals {
		old, ok := stored[k]
		if ok && old != v {
			return fmt.Errorf("%s read %v, an earlier run of this seed read %v", k, v, old)
		}
		if !ok {
			stored[k] = v
			changed = true
		}
	}
	if !changed {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err = json.Marshal(stored)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
