// Command tracedump runs a benchmark under the full self-repairing
// configuration and prints every hot trace the dynamic optimizer formed —
// disassembly with inserted prefetch code marked '+', watch-table timing,
// and the converged prefetch distances. The window into what the optimizer
// actually did.
//
//	tracedump -bench mcf
//	tracedump -bench swim -instrs 5000000 -hw none
//	tracedump -bench mcf -hw selector
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tridentsp/internal/core"
	"tridentsp/internal/workloads"
)

func main() {
	var (
		bench  = flag.String("bench", "mcf", "benchmark name")
		instrs = flag.Uint64("instrs", 3_000_000, "instruction budget")
		hw     = flag.String("hw", "8x8", "hardware prefetcher: "+core.HWNames())
		scale  = flag.String("scale", "full", "working-set scale: "+workloads.ScaleNames())
	)
	flag.Parse()

	if err := dump(os.Stdout, *bench, *hw, *scale, *instrs); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// dump runs the benchmark and writes the run statistics followed by the
// trace report. Split from main so the output format is testable.
func dump(w io.Writer, bench, hw, scale string, instrs uint64) error {
	bm, ok := workloads.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	cfg := core.DefaultConfig()
	sc, err := workloads.ParseScale(scale)
	if err == nil {
		cfg.HW, err = core.ParseHW(hw)
	}
	if err != nil {
		return err
	}

	sys := core.NewSystem(cfg, bm.Build(sc))
	res := sys.Run(instrs)
	fmt.Fprint(w, res.String())
	fmt.Fprintln(w)
	fmt.Fprint(w, sys.TraceReport())
	return nil
}
