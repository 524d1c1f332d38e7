// Package workloads defines the fourteen synthetic benchmarks standing in
// for the paper's evaluation suite (§4.2): applu, art, dot, equake,
// facerec, fma3d, galgel, gap, mcf, mgrid, parser, swim, vis, and wupwise.
//
// SPEC 2000 Alpha binaries are not available here, so each benchmark is a
// kernel written in the synthetic ISA that reproduces the three properties
// the paper's results actually depend on: the memory-access pattern of its
// delinquent loads (dense stride, large stride, arena pointer chase,
// irregular hash probing, interpreter dispatch, …), the size of its hot
// loop body (which sets the prefetch distance the self-repairing optimizer
// must discover — applu's >1000-instruction inner loop makes distance 1
// optimal, §5.3), and its hot-trace coverage (dot and parser spread work
// over irregular control flow and indirect jumps, giving the low coverage
// Figure 4 reports). DESIGN.md §1 records the substitution.
package workloads

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// Opcode aliases keep the kernel definitions compact.
const (
	subiOp = isa.SUBI
	bneOp  = isa.BNE
)

// Scale selects the working-set size.
type Scale int

// Scales.
const (
	// ScaleTest keeps footprints small for unit tests.
	ScaleTest Scale = iota
	// ScaleSmall fits in L3: exercises the pipeline without long runs.
	ScaleSmall
	// ScaleFull exceeds L3 so steady-state misses go to memory, like the
	// paper's memory-bound SPEC selection.
	ScaleFull
)

var scaleNames = [...]string{ScaleTest: "test", ScaleSmall: "small", ScaleFull: "full"}

// String is the scale's CLI name.
func (s Scale) String() string {
	if s >= 0 && int(s) < len(scaleNames) {
		return scaleNames[s]
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ScaleNames lists the CLI names ParseScale accepts, for flag help.
func ScaleNames() string { return strings.Join(scaleNames[:], ", ") }

// ParseScale inverts Scale.String.
func ParseScale(name string) (Scale, error) {
	if i := slices.Index(scaleNames[:], name); i >= 0 {
		return Scale(i), nil
	}
	return 0, fmt.Errorf("unknown scale %q (want one of %s)", name, ScaleNames())
}

// LongFactor is the instruction-budget multiplier of the "long" workload
// variants. Every kernel is an effectively endless outer loop (see
// outerForever), so a 100×-longer workload is the same program run to 100×
// the instruction budget — the regime interval sampling (internal/sampling,
// DESIGN §14) exists for: repair convergence is a long-horizon phenomenon
// that short budgets truncate.
const LongFactor = 100

// LongInstrs scales a base instruction budget to the 100× variant.
func LongInstrs(base uint64) uint64 { return base * LongFactor }

// Benchmark is one synthetic workload.
type Benchmark struct {
	Name string
	// Description summarizes the paper-relevant character.
	Description string
	// Build constructs the program at the given scale.
	Build func(s Scale) *program.Program
}

// All returns the fourteen benchmarks in the paper's order.
func All() []Benchmark {
	return []Benchmark{
		{"applu", "FP PDE solver; >1000-instruction inner loop, distance 1 optimal", cached("applu", Applu)},
		{"art", "FP neural net; repeated dense scans of weight arrays", cached("art", Art)},
		{"dot", "pointer-intensive; shuffled chunk chains, irregular control, low trace coverage", cached("dot", Dot)},
		{"equake", "FP sparse matvec; index-array streams plus indirect loads", cached("equake", Equake)},
		{"facerec", "FP image match; long-stride scans, estimate is sufficient", cached("facerec", Facerec)},
		{"fma3d", "FP crash solver; medium body, strided element arrays", cached("fma3d", Fma3d)},
		{"galgel", "FP fluid dynamics; row/column matrix sweeps", cached("galgel", Galgel)},
		{"gap", "group-theory interpreter; dispatch via indirect jumps, one small hot kernel", cached("gap", Gap)},
		{"mcf", "network simplex; arena-allocated pointer chase with multi-field nodes", cached("mcf", Mcf)},
		{"mgrid", "FP multigrid; three stride classes incl. plane strides", cached("mgrid", Mgrid)},
		{"parser", "dictionary hash probing; unpredictable branches, unprefetchable loads", cached("parser", Parser)},
		{"swim", "FP shallow water; unit-stride triple-array sweep, HW-prefetch friendly", cached("swim", Swim)},
		{"vis", "image rotation; column-major walk of row-major pixels, whole-object loads", cached("vis", Vis)},
		{"wupwise", "FP QCD; medium-stride matrix-vector kernels", cached("wupwise", Wupwise)},
	}
}

// buildCache holds one immutable, prebuilt master program per (benchmark,
// scale). The builders are deterministic (pinned by TestDeterministicBuilds),
// and the experiment harness builds each workload dozens of times — once per
// configuration per figure — so cloning a master is a large constant saving
// over re-emitting code and re-generating data.
var (
	buildMu    sync.Mutex
	buildCache = map[buildKey]*program.Program{}
)

type buildKey struct {
	name  string
	scale Scale
}

// cached wraps a builder with the master-program cache. The master's lazy
// caches are forced before it is published, so concurrent harness workers
// cloning it only ever read. The clone handed out is a ClonePristine — code
// deep-copied (the simulator patches it), the data map and paged memory
// image shared (the simulator reads them only, building its run memory as a
// copy-on-write view of the image). Cloning the data map per run used to be
// one of the largest single costs in the experiment harness.
func cached(name string, build func(Scale) *program.Program) func(Scale) *program.Program {
	return func(s Scale) *program.Program {
		k := buildKey{name, s}
		buildMu.Lock()
		p, ok := buildCache[k]
		if !ok {
			p = build(s)
			p.Prebuild()
			buildCache[k] = p
		}
		buildMu.Unlock()
		return p.ClonePristine()
	}
}

// ByName finds a benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// ParseList resolves a comma-separated benchmark list, trimming whitespace
// and rejecting names the registry does not know or a list naming none.
func ParseList(list string) ([]Benchmark, error) {
	var bms []Benchmark
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		bm, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		bms = append(bms, bm)
	}
	if len(bms) == 0 {
		return nil, fmt.Errorf("-bench %q names no benchmarks", list)
	}
	return bms, nil
}

// Register conventions shared by all kernels. r26..r28 are free temps;
// r29 is reserved for value-specialization guards, r30 as the prefetch
// optimizer's dereference scratch — workload code never reads either; r31
// is the hardwired zero.
const (
	rBase   = 1  // primary array/node pointer
	rBase2  = 2  // secondary array pointer
	rBase3  = 3  // tertiary array pointer
	rVal    = 10 // loaded value
	rVal2   = 11
	rVal3   = 12
	rAcc    = 13 // accumulator
	rAcc2   = 14
	rCount  = 4 // inner counter
	rOuter  = 6 // outer counter
	rTmp    = 15
	rTmp2   = 16
	rIdx    = 17
	rMask   = 20 // constant mask
	rTblPtr = 21 // constant table base
	rSeed   = 22 // PRNG state
	rJump   = 23 // computed jump target
)

// bytesAt returns a scale-dependent working-set size with the given full
// size (test and small scales shrink it).
func bytesAt(s Scale, full uint64) uint64 {
	switch s {
	case ScaleTest:
		return full / 64
	case ScaleSmall:
		return full / 8
	default:
		return full
	}
}

// outerForever sets up an effectively endless outer loop: the experiment
// harness stops runs by instruction limit, as the paper stops at 100M
// simulated instructions.
func outerForever(b *program.Builder) {
	b.Ldi(rOuter, 1<<40)
	b.Label("outer")
}

// outerEnd closes the endless outer loop.
func outerEnd(b *program.Builder) {
	b.OpI(subiOp, rOuter, rOuter, 1)
	b.CondBr(bneOp, rOuter, "outer")
	b.Halt()
}

// xorshift is the deterministic PRNG used to initialize irregular data.
type xorshift uint64

func newRand(seed uint64) *xorshift {
	x := xorshift(seed | 1)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}
