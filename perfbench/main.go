// Command perfbench is the repository's benchmark: it drives the simulator
// from outside, through its public functions only, on a fixed set of
// workloads, and prints every end-to-end metric by name with its unit after
// checking each simulated result against recorded digests.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench --workload exact-fp --seed 1 --seconds 25 --trace 0
//	perfbench --workload exact-pointer --seed 1 --seconds 25 --trace 1
//	perfbench --record perfbench/digests.json   # re-record on the reference loop
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// a separate run that records spans around every simulator call, replays
// per-layer probes, and prints the per-layer metrics; its span file goes to
// .bench_build/perfbench/. A measurement's last line of standard output is
// one JSON object with the keys correct, attempted, failed, and metrics; a
// run that cannot measure exits non-zero without it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tridentsp/internal/workloads"
)

// The recorded seeds: defaultSeed is the one a change is developed
// against; heldOutSeed is one a claimed gain must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupRepeats is how many times set-up is measured per run (the median is
// reported). Set-up fills process-wide caches, so the extra measurements
// run in child processes of this binary.
const setupRepeats = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "exact-fp", "workload: exact-fp, exact-pointer, sampled-default")
		seed      = flag.Int64("seed", defaultSeed, "seed for the run order and budget draws")
		seconds   = flag.Float64("seconds", 15, "measurement length in seconds")
		traced    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		setupOnly = flag.Bool("setup-only", false, "measure set-up once and print setup_s (child mode)")
		rec       = flag.String("record", "", "re-record the oracle into this file and exit")
	)
	flag.Parse()

	if *rec != "" {
		o, err := record(specs, workloads.ScaleFull)
		if err == nil {
			err = o.write(*rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ws, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o, err := loadOracle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := newBench(ws, workloads.ScaleFull, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *setupOnly {
		var t tally
		d := b.setup(&t)
		fmt.Printf("setup_s %.9f\n", d.Seconds())
		return
	}

	root, _ := os.Getwd()
	host := fingerprint(root)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	rng := rand.New(rand.NewSource(*seed))
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	if *traced == 1 {
		res, err = tracedRun(b, rng, dur, host, filepath.Join(root, ".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-seed%d.json", ws.name, *seed)))
	} else {
		res, err = untracedRun(b, rng, dur, setupRepeats)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// untracedRun measures the end-to-end metrics, timing set-up setups
// times: once in this process and the rest in child processes.
func untracedRun(b *bench, rng *rand.Rand, d time.Duration, setups int) (result, error) {
	setupS, err := childSetups(b.ws.name, setups-1)
	if err != nil {
		return result{}, err
	}
	var t tally
	setupS = append(setupS, b.setup(&t).Seconds())
	b.measure(rng, d, 0, &t)
	if t.attempted == t.failed {
		return result{}, fmt.Errorf("every run failed: %s", strings.Join(t.errs, "; "))
	}

	m := map[string]metric{
		"sim_minstr_per_s":       {t.throughput() / 1e6, "Minstr/s"},
		"run_ns_per_instr_gmean": {t.cellGeomean(), "ns"},
		"setup_s":                {median(setupS), "s"},
		"peak_rss_mb":            {median(t.blockRSS), "MB"},
	}
	// Report line: the end-to-end metrics that cannot be bounded (failure
	// share is 0 when healthy; sampling error is deterministic and only
	// exists on sampled workloads), the median and tail of the per-run
	// samples (a median or tail over runs of kernels that differ in speed
	// falls between kernels and jumps with the run mix, so the bounded
	// per-instruction metric is the per-cell geometric mean), the per-block
	// medians that show drift within the run, and the host-speed probes with
	// the throughput before rescaling.
	probes := sorted(t.probes)
	tv, tpct := tail(t.nsPerInstr)
	fmt.Printf("report %s\n", mustJSON(map[string]any{
		"workload":              b.ws.name,
		"samples":               len(t.nsPerInstr),
		"run_ns_per_instr_p50":  median(t.nsPerInstr),
		"run_ns_per_instr_tail": tv,
		"tail_percentile":       tpct,
		"block_p50":             t.blockP50,
		"failed_run_frac":       failedFrac(t.failed, t.attempted),
		"sampled_ipc_err_pct":   t.ipcErrPct,
		"setup_s_samples":       setupS,
		"first_failures":        t.errs,
		"run_seconds_measured":  t.wall.Seconds(),
		"probe_ms_min_p50_max":  []float64{probes[0], median(probes), probes[len(probes)-1]},
		"wall_minstr_per_s":     ratio(float64(t.instrs), t.wall.Seconds()) / 1e6,
	}))
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// childSetups measures set-up n times, each in a fresh child process of
// this binary, and waits for each child to exit.
func childSetups(workload string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := parseSetupLine(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSetupLine(b []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "setup_s" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("set-up child printed no setup_s line")
}

// resetPeakRSS restarts the kernel's peak resident set tracking at the
// current resident set, so each block's peak is measured on its own. Where
// the reset is unavailable the peak simply stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
