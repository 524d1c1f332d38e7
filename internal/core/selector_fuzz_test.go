package core

import (
	"bytes"
	"reflect"
	"testing"

	"tridentsp/internal/telemetry"
)

// FuzzSelectorDeterminism is the arsenal selector's determinism oracle: the
// same fuzz-built hot loop runs under the full arsenal (HWSelector, with
// epochs small enough that probe rounds, exploit windows, and winner
// switches all fire inside the run) on four execution paths — slow path,
// batch engine, JIT tier, and a kill/resume run checkpointed mid-stream —
// and the selector's decisions, its hwpref-switch events, must be identical
// on all of them, down to the cycle each switch fired. This is the contract
// DESIGN §16 states: switch points are a pure function of the committed
// load stream, never of the engine that executed it.
func FuzzSelectorDeterminism(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x66, 0x99, 0xb3})                        // load/store/prefetch
	f.Add(bytes.Repeat([]byte{0x67}, 24))                  // load-dense body
	f.Add(bytes.Repeat([]byte{0x9a, 0x08, 0xd1, 0x3f}, 8)) // store/ldnf/branch mix
	seq := make([]byte, 48)
	for i := range seq {
		seq[i] = byte(i * 53)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 192 {
			data = data[:192]
		}
		mk := func() Config {
			cfg := DefaultConfig()
			cfg.HW = HWSelector
			cfg.SelectorProbe = 300
			cfg.SelectorExploit = 2
			cfg.Telemetry = &telemetry.Options{}
			return cfg
		}
		slow := mk()
		slow.DisableFastPath = true
		batch := mk()
		batch.JIT = false
		jit := mk()
		jit.JIT = true
		jit.JITThreshold = 0

		sysS := NewSystem(slow, buildFuzzProgram(data))
		sysB := NewSystem(batch, buildFuzzProgram(data))
		sysJ := NewSystem(jit, buildFuzzProgram(data))
		resS := sysS.Run(30_000)
		resB := sysB.Run(30_000)
		resJ := sysJ.Run(30_000)

		// Kill/resume leg: the batch config runs half, serializes, and a
		// freshly built machine restores and finishes.
		sysK := NewSystem(batch, buildFuzzProgram(data))
		resK := sysK.Run(15_000)
		if resK.Aborted == "" && !sysK.Thread().Halted() {
			blob, err := sysK.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			fresh := NewSystem(batch, buildFuzzProgram(data))
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			sysK = fresh
		}
		resK = sysK.Run(30_000)

		ref := sysS.HWPref()
		for _, cmp := range []struct {
			name string
			sys  *System
			res  Results
		}{{"batch", sysB, resB}, {"jit", sysJ, resJ}, {"kill-resume", sysK, resK}} {
			if cmp.res != resS {
				t.Fatalf("Results diverged\n%s: %+v\nslow: %+v", cmp.name, cmp.res, resS)
			}
			hwp := cmp.sys.HWPref()
			if got, want := hwp.DecisionCount(), ref.DecisionCount(); got != want {
				t.Fatalf("%s: decision count diverged: %d vs slow %d", cmp.name, got, want)
			}
			if got, want := switchEvents(cmp.sys), switchEvents(sysS); !reflect.DeepEqual(got, want) {
				for i := range want {
					if i < len(got) && got[i] != want[i] {
						t.Fatalf("%s: decision %d diverged:\n%+v\nvs slow %+v",
							cmp.name, i, got[i], want[i])
					}
				}
				t.Fatalf("%s: decision logs diverged", cmp.name)
			}
			if got, want := hwp.Residency(), ref.Residency(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: residency diverged: %v vs slow %v", cmp.name, got, want)
			}
			if got, want := hwp.TotalStats(), ref.TotalStats(); got != want {
				t.Fatalf("%s: engine stats diverged: %+v vs slow %+v", cmp.name, got, want)
			}
		}
	})
}

// switchEvents returns the hwpref-switch events sys's tracer retained, with
// the tracer-wide sequence numbers cleared: engine-class events share that
// counter, so it differs between execution engines by design.
func switchEvents(sys *System) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range sys.Telemetry().Events() {
		if e.Kind == telemetry.KindHWPrefSwitch {
			e.Seq = 0
			out = append(out, e)
		}
	}
	return out
}
