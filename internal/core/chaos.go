package core

import (
	"fmt"

	"tridentsp/internal/chaos"
	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trident"
)

// This file wires the chaos fault-injection schedule and invariant watchdog
// (internal/chaos) into the simulated machine. Everything here is off the
// no-chaos path: a nil Config.Chaos costs one nil check per step.

// applyChaosEdge delivers one scheduled fault edge to the machine.
// Structures the configuration does not instantiate (no Trident, no
// optimizer) absorb their faults as no-ops.
func (s *System) applyChaosEdge(ed chaos.Edge) {
	e := ed.Event
	// Stamped with the edge's scheduled cycle (not the drain cycle) so the
	// event stream is identical across execution paths by construction.
	enter := int64(0)
	if ed.Enter {
		enter = 1
	}
	s.tel.Emit(telemetry.KindChaosEdge, e.At, 0, uint64(e.Kind), e.Arg, enter)
	switch e.Kind {
	case chaos.LatencyShift, chaos.LatencySpike:
		if ed.Enter {
			s.latFactors = append(s.latFactors, e.Arg)
		} else {
			for i, f := range s.latFactors {
				if f == e.Arg {
					s.latFactors = append(s.latFactors[:i], s.latFactors[i+1:]...)
					break
				}
			}
		}
		f := s.chaosLatFactor()
		s.hier.SetMemLatency(s.cfg.Mem.MemLatency * f)
		s.hier.SetBusOccupancy(s.cfg.Mem.BusOccupancy * f)
	case chaos.CacheFlush:
		s.hier.FlushCaches()
	case chaos.DLTFlush:
		if s.table != nil {
			s.table.Flush()
		}
	case chaos.DLTSqueeze:
		if s.table == nil {
			return
		}
		if ed.Enter {
			s.assocLimits = append(s.assocLimits, int(e.Arg))
		} else {
			for i, l := range s.assocLimits {
				if l == int(e.Arg) {
					s.assocLimits = append(s.assocLimits[:i], s.assocLimits[i+1:]...)
					break
				}
			}
		}
		lim := s.cfg.DLT.Assoc
		for _, l := range s.assocLimits {
			if l < lim {
				lim = l
			}
		}
		s.table.SetAssocLimit(lim)
	case chaos.WatchEvict:
		if s.watch != nil {
			s.watch.Evict(int(e.Arg))
		}
	case chaos.CodeCacheEvict:
		if s.cfg.Trident {
			s.evictLiveTraces(int(e.Arg), e.At)
		}
	case chaos.HelperPreempt:
		if ed.Enter && s.helper != nil {
			until := e.At + e.Duration
			s.helper.Preempt(until)
			// Any optimization mid-flight loses its context: its effects
			// cannot become visible before the preemption ends.
			if s.pending != nil && s.pending.at < until {
				s.pending.at = until
			}
		}
	}
}

// chaosLatFactor is the product of the active latency multipliers, clamped
// so overlapping windows cannot run the latency away.
func (s *System) chaosLatFactor() int64 {
	f := int64(1)
	for _, x := range s.latFactors {
		f *= x
		if f >= 64 {
			return 64
		}
	}
	return f
}

// evictLiveTraces unlinks up to n live placements, most recently placed
// first (code-cache pressure evicts the newest allocations in this model).
// Each evicted trace is fully backed out of execution and must re-form from
// profiler heat if it is still hot.
func (s *System) evictLiveTraces(n int, now int64) {
	var live []*trident.Placement
	s.cache.VisitPlacements(func(pl *trident.Placement) {
		if pl.Live {
			live = append(live, pl)
		}
	})
	for i := len(live) - 1; i >= 0 && n > 0; i-- {
		s.unlinkTrace(live[i], now)
		n--
	}
}

// attachWatchdog registers the DESIGN §6 invariant checks on a
// chaos.Monitor, and the transparency check against an architectural twin
// built over prog's data image. Checks run every ChaosMonitorEvery cycles;
// violations accumulate and surface in Results.
func (s *System) attachWatchdog(prog *program.Program) {
	m := chaos.NewMonitor(s.cfg.ChaosMonitorEvery)
	m.Register("figure6-sum", func(int64) error {
		var sum uint64
		for _, c := range s.hier.Stats.ByOutcome {
			sum += c
		}
		if sum != s.hier.Stats.Loads {
			return fmt.Errorf("outcome categories sum to %d, loads %d", sum, s.hier.Stats.Loads)
		}
		return nil
	})
	if s.table != nil {
		m.Register("dlt", func(int64) error { return s.table.CheckInvariants() })
	}
	if s.opt != nil {
		m.Register("controller", func(int64) error { return s.opt.CheckInvariants() })
	}
	mem := program.NewMemory(prog)
	s.twin = &archTwin{thread: cpu.New(s.cfg.CPU, nil, prog.Entry, mem, nil, nil), mem: mem}
	m.Register("transparency", s.transparencyCheck)
	m.SetTracer(s.tel)
	s.monitor = m
}

// archTwin is the unoptimized twin the transparency check compares against:
// a thread over its own copy-on-write clone of the data image, advanced by
// the functional executor over the pristine decoded image — the executor
// sampled runs already trust for architectural state, held to Step by
// cpu's lockstep oracle. It has no clock, caches, Trident or faults; it
// travels in a checkpoint as a region-of-interest snapshot plus its
// instruction count.
type archTwin struct {
	thread *cpu.Thread // functional only: no code space, hierarchy or predictor
	mem    *program.Memory
	instrs uint64 // original instructions retired
}

// syncTwinInit copies the main thread's starting registers into the twin.
// Runs once, on the first Run call before any step: workloads may seed
// registers through Thread().SetReg after NewSystem.
func (s *System) syncTwinInit() {
	if s.twin == nil || s.thread.Committed() != 0 {
		return
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		s.twin.thread.SetReg(r, s.thread.Reg(r))
	}
}

// transparencyCheck is the watchdog's architectural-transparency probe:
// advance the twin to the main machine's original-instruction count and
// compare register state. Comparison happens only at sync points where the
// main thread's next PC is in original code — inside a trace the weight
// accounting attributes the in-flight traversal approximately, so exact
// lockstep is only defined at trace boundaries. The optimizer's scratch
// register (and the specialization guard register, when in use) is
// excluded: the paper's optimizer is allowed to clobber it.
func (s *System) transparencyCheck(int64) error {
	pc := s.thread.PC()
	if s.cache.Contains(pc) {
		return nil // mid-trace: probe again next tick
	}
	tw := s.twin
	if tw.instrs < s.origInstrs {
		tw.instrs += tw.thread.ExecFunctional(s.pristine.Decoded(), s.pristine.Base, s.origInstrs-tw.instrs, nil)
	}
	if tw.instrs != s.origInstrs {
		return fmt.Errorf("twin stopped at %d original instructions, main at %d",
			tw.instrs, s.origInstrs)
	}
	if !s.thread.Halted() && !tw.thread.Halted() && tw.thread.PC() != pc {
		return fmt.Errorf("control diverged after %d instructions: main pc %#x, twin pc %#x",
			s.origInstrs, pc, tw.thread.PC())
	}
	scratch := isaReg(s.cfg.ScratchReg)
	guard := isaReg(s.cfg.GuardReg)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == scratch || (s.cfg.ValueSpecialize && r == guard) {
			continue
		}
		if s.thread.Reg(r) != tw.thread.Reg(r) {
			return fmt.Errorf("r%d diverged after %d instructions: main %#x, twin %#x",
				r, s.origInstrs, s.thread.Reg(r), tw.thread.Reg(r))
		}
	}
	return nil
}
