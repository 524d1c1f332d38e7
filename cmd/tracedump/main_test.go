package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDumpGolden pins the full tracedump output — run statistics, trace
// disassembly, watch timing, converged distances — for a small deterministic
// run. Regenerate with: go test ./cmd/tracedump -run TestDumpGolden -update
func TestDumpGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := dump(&buf, "dot", "8x8", "small", 200_000); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dot_small_200k.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (re-run with -update if intended)\ngot:\n%s", golden, buf.String())
	}
}

func TestDumpRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		bench, hw, scale string
		ok               bool
	}{
		{"nope", "8x8", "small", false},
		{"dot", "16x16", "small", false},
		{"dot", "8x8", "huge", false},
		{"dot", "selector", "test", true}, // every core.HWPrefetch name is accepted
	} {
		if err := dump(&buf, tc.bench, tc.hw, tc.scale, 1000); (err == nil) != tc.ok {
			t.Errorf("dump(%q,%q,%q): err = %v, want ok=%v", tc.bench, tc.hw, tc.scale, err, tc.ok)
		}
	}
}
