// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run every experiment at full scale
//	experiments -fig fig5       # one experiment by id
//	experiments -quick          # reduced scale/suite for a fast look
//	experiments -list           # list experiments and the machine config
//	experiments -instrs 5000000 # change the per-run instruction budget
//	experiments -bench mcf,swim # restrict the benchmark suite
//	experiments -j 8            # cap concurrent simulator runs (0 = NumCPU)
//	experiments -task-timeout 10m       # bound each run's wall-clock time
//	experiments -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -fig sampleval          # sampled-vs-exact validation figure
//	experiments -sample -fig fig5       # any figure under interval sampling
//
// Tables are byte-identical at any -j: runs execute concurrently but
// results are assembled in a fixed order.
//
// Each run executes once; every result is a pure function of its inputs,
// so a retry would only replay a failure. A run that panics or exceeds
// -task-timeout renders its cells as "—", the failure is listed under the
// table, and the command exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"tridentsp/internal/core"
	"tridentsp/internal/exp"
	"tridentsp/internal/workloads"
)

func main() {
	os.Exit(realMain())
}

// realMain carries main's body so profile-flushing defers run before the
// exit code (os.Exit skips defers).
func realMain() int {
	var (
		fig        = flag.String("fig", "", "experiment id to run (default: all)")
		quick      = flag.Bool("quick", false, "reduced scale and suite")
		list       = flag.Bool("list", false, "list experiments and configuration")
		instrs     = flag.Uint64("instrs", 0, "per-run instruction budget")
		bench      = flag.String("bench", "", "comma-separated benchmark subset")
		jobs       = flag.Int("j", 0, "max concurrent simulator runs (0 = all CPUs)")
		taskTO     = flag.Duration("task-timeout", 0, "per-run wall-clock deadline (0 = none)")
		sample     = flag.Bool("sample", false, "run every figure under the interval-sampling scheduler (DESIGN §14, §15); cells come from extrapolated results")
		sampleJobs = flag.Int("sample-jobs", 1, "concurrent detailed-window chains inside each sampled run; tables are byte-identical at any value (with -j unset, the pool narrows to NumCPU/sample-jobs)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	engine := core.DefaultConfig().Engine
	engine.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		printList()
		return 0
	}

	opts := exp.Options{}
	if *quick {
		opts = exp.QuickOptions()
	}
	if *instrs != 0 {
		opts.Instrs = *instrs
	}
	if *bench != "" {
		bms, err := workloads.ParseList(*bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; try -list\n", err)
			return 1
		}
		opts.Benchmarks = nil
		for _, bm := range bms {
			opts.Benchmarks = append(opts.Benchmarks, bm.Name)
		}
	}
	opts.Jobs = *jobs
	opts.Sampled = *sample
	opts.SampleJobs = *sampleJobs
	opts.Engine = &engine
	opts.TaskTimeout = *taskTO

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	failed := 0
	if *fig != "" {
		e, ok := exp.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *fig)
			return 1
		}
		tb := e.Run(opts)
		fmt.Print(tb.Render())
		failed += len(tb.Failures)
	} else {
		for _, e := range exp.All() {
			tb := e.Run(opts)
			fmt.Print(tb.Render())
			fmt.Println()
			failed += len(tb.Failures)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d run(s) failed; tables are degraded (holes marked —)\n", failed)
		return 1
	}
	return 0
}

func printList() {
	fmt.Println("experiments:")
	for _, e := range exp.All() {
		fmt.Printf("  %-10s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nbenchmarks:")
	for _, b := range workloads.All() {
		fmt.Printf("  %-9s %s\n", b.Name, b.Description)
	}
	cfg := core.DefaultConfig()
	fmt.Println("\nmachine (paper Table 1/2 defaults):")
	fmt.Printf("  core: %d-wide issue, %d-cycle mispredict, overlap window %d\n",
		cfg.CPU.IssueWidth, cfg.CPU.MispredictPenalty, cfg.CPU.OverlapWindow)
	fmt.Printf("  L1 %dKB/%d-way/%dc  L2 %dKB/%d-way/%dc  L3 %dMB/%d-way/%dc  mem %dc\n",
		cfg.Mem.L1.SizeBytes>>10, cfg.Mem.L1.Assoc, cfg.Mem.L1.Latency,
		cfg.Mem.L2.SizeBytes>>10, cfg.Mem.L2.Assoc, cfg.Mem.L2.Latency,
		cfg.Mem.L3.SizeBytes>>20, cfg.Mem.L3.Assoc, cfg.Mem.L3.Latency,
		cfg.Mem.MemLatency)
	fmt.Printf("  stream buffers: %s; DLT %d entries %d-way, window %d, miss threshold %d\n",
		cfg.HW, cfg.DLT.Entries, cfg.DLT.Assoc, cfg.DLT.WindowSize, cfg.DLT.MissThreshold)
	fmt.Printf("  profiler %d entries %d-way; watch table %d; helper startup %d cycles\n",
		cfg.Profiler.Entries, cfg.Profiler.Assoc, cfg.WatchCapacity, cfg.Cost.StartupLatency)
}
