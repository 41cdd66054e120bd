package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenRecord is a fully deterministic tree record exercising every
// field of the wire schema.
func goldenRecord() *TreeRecord {
	return &TreeRecord{
		Schema:      Schema,
		TraceID:     "4bf92f3577b34da6a3ce929d0e0e4736",
		StartUnixNS: 1754500000000000000,
		Flags:       []string{"timeout", "slow"},
		Attrs:       map[string]any{"request_id": "req-0001", "workload": "c17"},
		Dropped:     2,
		Spans: []SpanRecord{
			{
				SpanID:  "00f067aa0ba902b7",
				Name:    "serve.request",
				StartNS: 0,
				DurNS:   1500000,
				Attrs:   map[string]any{"endpoint": "/v1/diagnose", "status": int64(504)},
			},
			{
				SpanID:   "1f2e3d4c5b6a7988",
				ParentID: "00f067aa0ba902b7",
				Name:     "serve.queue",
				StartNS:  12000,
				DurNS:    400000,
			},
			{
				SpanID:     "a1b2c3d4e5f60718",
				ParentID:   "00f067aa0ba902b7",
				Name:       "diagnose",
				StartNS:    420000,
				DurNS:      0,
				Unfinished: true,
				Attrs:      map[string]any{"candidates": int64(37)},
			},
		},
	}
}

// TestTraceJSONLGolden pins the wire schema byte-for-byte: any change to
// field names, ordering, or encoding shows up as a golden diff and forces
// a deliberate schema bump. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/trace -run Golden.
func TestTraceJSONLGolden(t *testing.T) {
	path := filepath.Join("testdata", "tree_golden.jsonl")
	var buf bytes.Buffer
	if err := goldenRecord().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire schema drifted from golden.\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestGoldenRoundtrips proves the golden file decodes through the same
// reader mdtrace uses, with structure intact.
func TestGoldenRoundtrips(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "tree_golden.jsonl"))
	if err != nil {
		t.Fatalf("golden missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	recs, err := ReadTrees(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("golden decodes to %d trees", len(recs))
	}
	r := recs[0]
	if r.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || !r.HasFlag("timeout") || r.Dropped != 2 {
		t.Fatalf("golden tree mangled: %+v", r)
	}
	if root := r.Root(); root == nil || root.Name != "serve.request" {
		t.Fatalf("golden root: %+v", r.Root())
	}
	if len(r.Spans) != 3 || !r.Spans[2].Unfinished {
		t.Fatalf("golden spans mangled: %+v", r.Spans)
	}
	// JSON numbers decode as float64; the schema's attr values must
	// survive as numerically exact.
	if got := r.Spans[0].Attrs["status"]; got != float64(504) {
		t.Fatalf("status attr = %v (%T)", got, got)
	}
}

// TestReadTreesRejectsWrongSchema guards against silently misreading a
// future or foreign JSONL stream.
func TestReadTreesRejectsWrongSchema(t *testing.T) {
	in := bytes.NewBufferString(`{"schema":"mdtrace/v99","trace_id":"ab","spans":[]}` + "\n")
	if _, err := ReadTrees(in); err == nil {
		t.Fatal("wrong-schema line accepted")
	}
	in = bytes.NewBufferString("{not json}\n")
	if _, err := ReadTrees(in); err == nil {
		t.Fatal("malformed line accepted")
	}
}
