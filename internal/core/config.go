// Package core wires every substrate into the simulated machine the paper
// evaluates: the SMT core, the memory hierarchy with hardware stream
// buffers, the Trident monitoring hardware and helper-thread scheduler, the
// delinquent load table, and the self-repairing prefetch optimizer. It owns
// the simulation loop, the honest original-instruction IPC accounting, and
// the statistics every figure of the paper is regenerated from.
package core

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tridentsp/internal/chaos"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/cpu"
	"tridentsp/internal/dlt"
	"tridentsp/internal/hwpref"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/prefetch"
	"tridentsp/internal/streambuf"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trace"
	"tridentsp/internal/trident"
)

// HWPrefetch selects the hardware stream-buffer configuration (Figure 2).
type HWPrefetch uint8

// Hardware prefetcher configurations. HWNone/HW4x4/HW8x8 select the
// paper's stream-buffer machine; the rest select internal/hwpref arsenal
// backends (DESIGN §16) — four static predictors and the online per-phase
// selector that probes all of them and exploits the epoch winner.
const (
	HWNone HWPrefetch = iota
	HW4x4
	HW8x8
	HWNextLine
	HWStride
	HWBestOffset
	HWGHB
	HWSelector
)

// hwNames are the configurations' CLI names, indexed by HWPrefetch.
var hwNames = [...]string{HWNone: "none", HW4x4: "4x4", HW8x8: "8x8", HWNextLine: "next-line",
	HWStride: "stride", HWBestOffset: "best-offset", HWGHB: "ghb", HWSelector: "selector"}

// String names the configuration: "hw-" and its CLI name.
func (h HWPrefetch) String() string {
	if int(h) < len(hwNames) {
		return "hw-" + hwNames[h]
	}
	return "hw-none"
}

// ParseHW maps a CLI name ("8x8", "selector", ...) to its configuration.
func ParseHW(name string) (HWPrefetch, error) {
	return parseName[HWPrefetch]("hw config", name, hwNames[:])
}

// HWNames lists the CLI names ParseHW accepts, for flag help.
func HWNames() string { return strings.Join(hwNames[:], ", ") }

// Arsenal reports whether the configuration selects an internal/hwpref
// backend rather than the stream buffers.
func (h HWPrefetch) Arsenal() bool { return h >= HWNextLine }

// SWMode selects the software prefetching scheme (Figure 5).
type SWMode uint8

// Software prefetching modes.
const (
	SWOff SWMode = iota
	SWBasic
	SWWholeObject
	SWSelfRepair
)

// swNames are the modes' CLI names, indexed by SWMode.
var swNames = [...]string{SWOff: "off", SWBasic: "basic", SWWholeObject: "whole-object", SWSelfRepair: "self-repair"}

// String names the mode: "sw-" and its CLI name.
func (m SWMode) String() string {
	if int(m) < len(swNames) {
		return "sw-" + swNames[m]
	}
	return "sw-off"
}

// ParseSW maps a CLI name ("basic", "self-repair", ...) to its mode.
func ParseSW(name string) (SWMode, error) { return parseName[SWMode]("sw mode", name, swNames[:]) }

// SWNames lists the CLI names ParseSW accepts, for flag help.
func SWNames() string { return strings.Join(swNames[:], ", ") }

// parseName inverts a CLI name table.
func parseName[E ~uint8](kind, name string, names []string) (E, error) {
	if i := slices.Index(names, name); i >= 0 {
		return E(i), nil
	}
	return 0, fmt.Errorf("unknown %s %q (want one of %s)", kind, name, strings.Join(names, ", "))
}

// Config describes one simulated machine.
type Config struct {
	CPU cpu.Config
	Mem memsys.Config

	// HW selects the baseline hardware stream buffers or an arsenal
	// backend (HWPrefetch.Arsenal).
	HW HWPrefetch
	// HWDegree is the arsenal backends' prefetch degree (lines proposed
	// per trigger); ignored by the stream-buffer configurations.
	HWDegree int
	// SelectorProbe is the HWSelector probe-epoch length in committed
	// loads; SelectorExploit scales the exploit epoch (probe × factor).
	// Both ignored unless HW is HWSelector.
	SelectorProbe   uint64
	SelectorExploit uint64
	// SW selects dynamic software prefetching; SWOff disables Trident's
	// prefetch optimizer (trace formation still runs if Trident is on).
	SW SWMode

	// Trident enables the dynamic optimization framework (trace formation
	// and the monitoring hardware). Without it the machine is the plain
	// baseline of Figure 2.
	Trident bool
	// LinkTraces, when false, runs the full optimizer but never patches
	// the original binary — the §5.1 overhead experiment.
	LinkTraces bool

	DLT           dlt.Config
	Profiler      trident.ProfilerConfig
	WatchCapacity int
	Form          trace.FormConfig
	Cost          trident.CostModel
	EventQueueCap int

	// PFLineSize etc. for the optimizer are derived from Mem; ScratchReg
	// is the register reserved for inserted dereference code.
	ScratchReg uint8
	// MaxDistanceCap bounds prefetch distances.
	MaxDistanceCap int64
	// DerefPointers enables §3.4.3 pointer dereference prefetching.
	DerefPointers bool
	// InitFromEstimate starts self-repair at the equation-2 estimate
	// instead of distance 1 (the paper's "no gain" variant, §3.5.1).
	InitFromEstimate bool

	// ValueSpecialize enables dynamic value specialization of hot traces
	// (the prior Trident work's optimization, PACT 2005, which this
	// paper's framework inherits): quasi-invariant loads found by a value
	// profile table get a guard + constant substitution so the classical
	// passes can fold downstream computation.
	ValueSpecialize bool
	// VPT sizes the value profile table.
	VPT trident.VPTConfig
	// GuardReg is the second scratch register specialization guards use.
	GuardReg uint8

	// Chaos optionally attaches a deterministic fault-injection schedule
	// (see internal/chaos). Schedules are immutable and shareable: every
	// System built from this Config replays the same faults at the same
	// cycles. nil means no faults and zero per-step overhead.
	Chaos *chaos.Schedule
	// ChaosMonitorEvery is the invariant watchdog's probe period in
	// cycles. When positive and Chaos is set, a chaos.Monitor checks the
	// DESIGN §6 invariants (controller distance bounds, repair budget,
	// DLT consistency, Figure-6 category sums) every so many cycles and
	// records violations in Results. It also runs the continuous
	// transparency check: at every probe that lands in original code, the
	// registers are compared with an architectural twin that the
	// functional executor advances over the pristine image.
	ChaosMonitorEvery int64

	// LivelockWindow aborts a run when no original instruction commits
	// for this many cycles (e.g. a self-loop left by a bad patch),
	// reporting the reason in Results.Aborted instead of spinning to the
	// cycle limit. 0 disables detection.
	LivelockWindow int64

	// Telemetry, when non-nil, attaches a structured event tracer and
	// metrics registry to the machine (internal/telemetry, DESIGN §11):
	// every subsystem's decisions are recorded as typed ring-buffered
	// events, reachable through System.Telemetry(). nil (the default)
	// costs one nil check at each emission site.
	Telemetry *telemetry.Options

	// Engine selects how the machine is simulated, not what it computes.
	Engine

	// SentinelEvery arms the online divergence sentinel (sentinel.go,
	// DESIGN §12): every so many original instructions a window of
	// SentinelWindow instructions is replayed through the reference
	// one-step loop and the architectural state cross-checked. On
	// divergence the machine rewinds to the window start, quarantines its
	// decoded blocks, and demotes itself to the reference loop for the
	// rest of the run. 0 (the default) disables the sentinel; it is also
	// inert when DisableFastPath already selects the reference loop.
	SentinelEvery uint64
	// SentinelWindow is the sentinel's replay window length in original
	// instructions. Must be positive and at most SentinelEvery when the
	// sentinel is armed.
	SentinelWindow uint64
}

// Engine groups the execution-engine knobs. The tiers are bit-identical by
// construction (DESIGN §9, §13), so Engine is the one part of Config left
// out of Identity: a checkpoint cut on one engine resumes on any other.
type Engine struct {
	// DisableFastPath forces the reference one-step-at-a-time simulation
	// loop instead of the event-horizon/block-batched engine (DESIGN §9).
	// The two paths are bit-identical by construction — this knob exists so
	// the differential tests (and -slowpath on the CLIs) can prove it.
	// Disabling the fast path also disables the JIT tier (it sits above the
	// batch engine).
	DisableFastPath bool

	// JIT enables the third execution tier (DESIGN §13): superblocks whose
	// launch count crosses JITThreshold are compiled once per block-cache
	// generation into chains of specialized Go closures and retired through
	// cpu.ExecCompiled instead of the interpreting batch executor. The tier
	// is architecturally invisible — bit-identical to the batch engine and
	// the reference loop — and is quarantined together with the fast path
	// on sentinel divergence.
	JIT bool
	// JITThreshold is how many interpreted launches a block endures before
	// promotion; 0 compiles on first use (the promotion-boundary smoke
	// configuration).
	JITThreshold uint32
}

// RegisterFlags binds -slowpath, -jit and -jit-threshold to e's fields,
// with e's current values as the defaults.
func (e *Engine) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&e.DisableFastPath, "slowpath", e.DisableFastPath,
		"force the reference one-step simulation loop (disable the block-batched engine)")
	fs.BoolVar(&e.JIT, "jit", e.JIT,
		"compile hot superblocks to closure chains (the tier above the batch engine; moot under -slowpath)")
	fs.Var((*uint32Flag)(&e.JITThreshold), "jit-threshold",
		"interpreted `launches` before a block is JIT-compiled (0 = compile on first use)")
}

type uint32Flag uint32

func (f *uint32Flag) String() string { return strconv.FormatUint(uint64(*f), 10) }

func (f *uint32Flag) Set(s string) error {
	v, err := strconv.ParseUint(s, 10, 32)
	*f = uint32Flag(v)
	return err
}

// Identity is the machine's canonical run identity (DESIGN §12.1): every
// field of the configuration except Engine, encoded by
// checkpoint.Identity. Telemetry encodes by presence and effective ring
// capacity, so RingCap 0 and DefaultRingCap read as the same machine.
func (c Config) Identity() string {
	c.Engine = Engine{}
	if c.Telemetry != nil {
		c.Telemetry = &telemetry.Options{RingCap: c.Telemetry.EffectiveRingCap()}
	}
	return checkpoint.Identity("", c)
}

// DefaultConfig is the paper's evaluated machine: Table 1 core and memory,
// 8x8 stream buffers, Trident with self-repairing prefetching.
func DefaultConfig() Config {
	return Config{
		CPU:             cpu.DefaultConfig(),
		Mem:             memsys.DefaultConfig(),
		HW:              HW8x8,
		HWDegree:        4,
		SelectorProbe:   2000,
		SelectorExploit: 16,
		SW:              SWSelfRepair,
		Trident:         true,
		LinkTraces:      true,
		DLT:             dlt.DefaultConfig(),
		Profiler:        trident.DefaultProfilerConfig(),
		WatchCapacity:   256,
		Form:            trace.DefaultFormConfig(),
		Cost:            trident.DefaultCostModel(),
		EventQueueCap:   32,
		ScratchReg:      30,
		MaxDistanceCap:  64,
		DerefPointers:   true,

		VPT:      trident.DefaultVPTConfig(),
		GuardReg: 29,

		ChaosMonitorEvery: 25_000,
		LivelockWindow:    1_000_000,

		Engine: Engine{JIT: true, JITThreshold: 8},
	}
}

// BaselineConfig is Figure 2's machine: hardware prefetching only, no
// Trident.
func BaselineConfig(hw HWPrefetch) Config {
	c := DefaultConfig()
	c.HW = hw
	c.SW = SWOff
	c.Trident = false
	return c
}

// prefetchConfig derives the optimizer configuration.
func (c Config) prefetchConfig() prefetch.Config {
	mode := prefetch.ModeSelfRepair
	switch c.SW {
	case SWBasic:
		mode = prefetch.ModeBasic
	case SWWholeObject:
		mode = prefetch.ModeWholeObject
	}
	return prefetch.Config{
		Mode:             mode,
		LineSize:         int64(c.Mem.LineSize),
		ScratchReg:       isaReg(c.ScratchReg),
		MemLatency:       c.Mem.MemLatency,
		L1Latency:        c.Mem.L1.Latency,
		MaxDistanceCap:   c.MaxDistanceCap,
		DerefPointers:    c.DerefPointers,
		InitFromEstimate: c.InitFromEstimate,
	}
}

// Validate rejects configurations that would silently misbehave, with
// descriptive errors. NewSystem calls it and panics on failure (matching
// the substrate constructors); CLIs call it first to report friendly
// errors instead.
func (c Config) Validate() error {
	if c.CPU.IssueWidth < 1 {
		return fmt.Errorf("core: CPU.IssueWidth must be at least 1, got %d", c.CPU.IssueWidth)
	}
	if c.Mem.LineSize < 2 || c.Mem.LineSize&(c.Mem.LineSize-1) != 0 {
		return fmt.Errorf("core: Mem.LineSize must be a power of two of at least 2, got %d", c.Mem.LineSize)
	}
	if c.Mem.MemLatency < 1 {
		return fmt.Errorf("core: Mem.MemLatency must be positive, got %d", c.Mem.MemLatency)
	}
	if c.Mem.BusOccupancy < 1 {
		return fmt.Errorf("core: Mem.BusOccupancy must be positive, got %d", c.Mem.BusOccupancy)
	}
	if c.Mem.MaxInFlight < 1 {
		return fmt.Errorf("core: Mem.MaxInFlight must be positive, got %d", c.Mem.MaxInFlight)
	}
	if c.ScratchReg >= uint8(isa.NumRegs) {
		return fmt.Errorf("core: ScratchReg %d outside register file (0..%d)", c.ScratchReg, isa.NumRegs-1)
	}
	if c.HW > HWSelector {
		return fmt.Errorf("core: unknown HW prefetch configuration %d", c.HW)
	}
	if c.HW.Arsenal() && c.HWDegree < 1 {
		return fmt.Errorf("core: HWDegree must be at least 1 with an arsenal prefetcher, got %d", c.HWDegree)
	}
	if c.HW == HWSelector && (c.SelectorProbe < 1 || c.SelectorExploit < 1) {
		return fmt.Errorf("core: SelectorProbe and SelectorExploit must be positive with hw-selector, got %d/%d",
			c.SelectorProbe, c.SelectorExploit)
	}
	if c.Trident {
		if c.WatchCapacity < 1 {
			return fmt.Errorf("core: WatchCapacity must be positive with Trident, got %d", c.WatchCapacity)
		}
		if c.EventQueueCap < 1 {
			return fmt.Errorf("core: EventQueueCap must be positive with Trident, got %d", c.EventQueueCap)
		}
		if c.DLT.WindowSize == 0 {
			return fmt.Errorf("core: DLT.WindowSize must be positive with Trident")
		}
		if c.DLT.Entries < 1 || c.DLT.Assoc < 1 {
			return fmt.Errorf("core: DLT needs positive Entries and Assoc, got %d/%d", c.DLT.Entries, c.DLT.Assoc)
		}
		if c.SW != SWOff && c.MaxDistanceCap < 1 {
			return fmt.Errorf("core: MaxDistanceCap must be at least 1 with software prefetching, got %d", c.MaxDistanceCap)
		}
	}
	if c.ValueSpecialize && c.GuardReg >= uint8(isa.NumRegs) {
		return fmt.Errorf("core: GuardReg %d outside register file (0..%d)", c.GuardReg, isa.NumRegs-1)
	}
	if c.LivelockWindow < 0 {
		return fmt.Errorf("core: LivelockWindow must be non-negative, got %d", c.LivelockWindow)
	}
	if c.ChaosMonitorEvery < 0 {
		return fmt.Errorf("core: ChaosMonitorEvery must be non-negative, got %d", c.ChaosMonitorEvery)
	}
	if c.Chaos != nil {
		if err := c.Chaos.Validate(); err != nil {
			return fmt.Errorf("core: invalid chaos schedule: %w", err)
		}
	}
	if c.Telemetry != nil && c.Telemetry.RingCap < 0 {
		return fmt.Errorf("core: Telemetry.RingCap must be non-negative, got %d", c.Telemetry.RingCap)
	}
	if c.SentinelEvery > 0 {
		if c.SentinelWindow == 0 {
			return fmt.Errorf("core: SentinelWindow must be positive when the sentinel is armed")
		}
		if c.SentinelWindow > c.SentinelEvery {
			return fmt.Errorf("core: SentinelWindow %d exceeds SentinelEvery %d",
				c.SentinelWindow, c.SentinelEvery)
		}
	}
	return nil
}

// streambufConfig derives the stream-buffer configuration.
func (c Config) streambufConfig() (streambuf.Config, bool) {
	switch c.HW {
	case HW4x4:
		sc := streambuf.Config4x4()
		sc.LineSize = c.Mem.LineSize
		return sc, true
	case HW8x8:
		sc := streambuf.DefaultConfig()
		sc.LineSize = c.Mem.LineSize
		return sc, true
	}
	return streambuf.Config{}, false
}

// buildArsenal constructs the hwpref selector for an arsenal configuration
// (nil otherwise). Static backends are single-backend selectors — the same
// engine, buffer, and checkpoint shape, with the epoch machinery inert.
func (c Config) buildArsenal(port hwpref.FillPort) *hwpref.Selector {
	if !c.HW.Arsenal() {
		return nil
	}
	pc := hwpref.DefaultConfig()
	pc.LineSize = c.Mem.LineSize
	pc.Degree = c.HWDegree
	sc := hwpref.SelectorConfig{ProbeLoads: c.SelectorProbe, ExploitFactor: c.SelectorExploit}
	switch c.HW {
	case HWNextLine:
		return hwpref.New(pc, sc, port, hwpref.NewNextLine(pc))
	case HWStride:
		return hwpref.New(pc, sc, port, hwpref.NewStride(pc))
	case HWBestOffset:
		return hwpref.New(pc, sc, port, hwpref.NewBestOffset(pc))
	case HWGHB:
		return hwpref.New(pc, sc, port, hwpref.NewGHB(pc))
	}
	return hwpref.New(pc, sc, port, hwpref.Arsenal(pc)...)
}
