package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The golden-tables suite pins what cmd/experiments prints. The success
// section is Render() of every experiment in All() at QuickOptions(). The
// failure section reruns each per-benchmark figure on swim under a
// deadline no run can meet, which pins the holes and failure manifests;
// each failed run must appear there once, under a label unique within its
// table. Both sections live in testdata/golden/tables.txt, and a change to
// how tables are assembled must leave that file byte-identical.
//
// Regenerate after an intentional output change with:
//
//	go test ./internal/exp -run TestGoldenTables -update-golden

var goldenTablesPath = filepath.Join("testdata", "golden", "tables.txt")

// failureFigures are the per-benchmark figures of the failure section: the
// experiments assembled by rowsOf and speedupsOf.
var failureFigures = []string{
	"fig2", "overhead", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"extracache", "fig9", "ablations",
}

// goldenSection is one titled block of the golden-tables file.
type goldenSection struct{ title, body string }

// goldenTables renders both sections.
func goldenTables(t *testing.T) []goldenSection {
	var ok strings.Builder
	for _, e := range All() {
		ok.WriteString(e.Run(QuickOptions()).Render())
	}
	o := QuickOptions()
	o.Benchmarks = []string{"swim"}
	o.TaskTimeout = time.Nanosecond
	var failed strings.Builder
	for _, id := range failureFigures {
		e, found := ByID(id)
		if !found {
			t.Fatalf("unknown experiment %q", id)
		}
		tbl := e.Run(o)
		seen := make(map[string]bool)
		for _, f := range tbl.Failures {
			if seen[f.Label] {
				t.Errorf("%s: failed run %q listed twice", id, f.Label)
			}
			seen[f.Label] = true
		}
		failed.WriteString(tbl.Render())
	}
	return []goldenSection{
		{"success: every experiment at QuickOptions()", ok.String()},
		{"failure: per-benchmark figures on swim, TaskTimeout 1ns", failed.String()},
	}
}

// TestGoldenTables records (with -update-golden) or verifies the rendered
// tables, reporting the first diverging line of each section that moved.
func TestGoldenTables(t *testing.T) {
	got := goldenTables(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, s := range got {
			buf.WriteString("### " + s.title + "\n" + s.body)
		}
		if err := os.WriteFile(goldenTablesPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	want := make(map[string]string)
	for _, block := range strings.Split(string(data), "### ")[1:] {
		title, body, _ := strings.Cut(block, "\n")
		want[title] = body
	}
	for _, s := range got {
		w, found := want[s.title]
		if !found {
			t.Errorf("golden file has no %q section", s.title)
			continue
		}
		if w == s.body {
			continue
		}
		gl, wl := strings.Split(s.body, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s: diverges at line %d:\n got: %s\nwant: %s", s.title, i+1, g, w)
				break
			}
		}
	}
}
