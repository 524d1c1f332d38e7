package core

import (
	"fmt"
	"runtime/debug"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// TestRestoreFlipSweep: a checkpoint with one corrupted byte either fails to
// restore or restores into a machine that keeps running. Every offset in the
// blob's first 4 KiB (the thread, then the program image) is XORed with one
// of 0x80, 0xff and 0x01 in rotation — so each instruction's three register
// bytes see all three — and the rest of the blob is sampled at a stride.
// One fixture is cut while an optimization is pending, so the pending
// records are swept too. A
// restore that succeeds must then run 20k more instructions without
// panicking: the checkpoint layer is the only gate between a file on disk
// and the machine's indexing. Under -race the head is sampled every 7th
// byte instead: the sweep runs on one goroutine, so the detector adds cost
// and no coverage.
func TestRestoreFlipSweep(t *testing.T) {
	selector := DefaultConfig()
	selector.HW = HWSelector
	selector.SelectorProbe = 300
	selector.SelectorExploit = 2
	selector.ValueSpecialize = true
	selector.Telemetry = &telemetry.Options{RingCap: 256} // small rings keep NewSystem cheap per trial

	sched, err := chaos.NewSchedule(chaos.PresetEvictionStorm, 7, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := DefaultConfig()
	chaotic.Chaos = sched
	chaotic.ChaosMonitorEvery = 20_000

	flips := []byte{0x80, 0xff, 0x01}
	for _, c := range []struct {
		name, bench string
		cfg         Config
		at          uint64
		pending     bool // the cut must carry a pending optimization
	}{
		// At 140k the prefetch optimizer's insert is pending: the blob
		// carries the core's record and the optimizer's new version.
		{"mcf-selector-specialize-telemetry", "mcf", selector, 140_000, true},
		{"swim-chaos-shadow", "swim", chaotic, 200_000, false},
	} {
		// One failing configuration is enough to report; the next would
		// only repeat it at the cost of another sweep.
		if !t.Run(c.name, func(t *testing.T) {
			bm, _ := workloads.ByName(c.bench)
			build := func() *System { return NewSystem(c.cfg, bm.Build(workloads.ScaleSmall)) }
			sys := build()
			sys.Run(c.at)
			if c.pending && sys.pending == nil {
				t.Fatalf("no optimization pending at %d instructions", c.at)
			}
			blob, err := sys.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			const head = 4096
			headStride, stride := 1, 1+(len(blob)-head)/500
			if raceEnabled {
				headStride, stride = 7, 1+(len(blob)-head)/100
			}
			var offsets []int
			for off := 0; off < len(blob); {
				offsets = append(offsets, off)
				if off < head {
					off += headStride
				} else {
					off += stride
				}
			}
			mut := make([]byte, len(blob))
			restored, panics := 0, 0
			for _, off := range offsets {
				copy(mut, blob)
				mut[off] ^= flips[off%len(flips)]
				ok, msg := flipTrial(build, mut)
				if ok {
					restored++
				}
				if msg != "" {
					panics++
					if panics <= 5 {
						t.Errorf("byte %d of %d XOR %#02x: restored, then %s", off, len(blob), flips[off%len(flips)], msg)
					}
				}
			}
			if panics > 5 {
				t.Errorf("%d corrupted checkpoints restored and then panicked (first 5 shown)", panics)
			}
			t.Logf("%d-byte blob, %d offsets: %d corrupted checkpoints restored and ran 20k instructions",
				len(blob), len(offsets), restored)
		}) {
			break
		}
	}
}

// flipTrial restores blob into a fresh machine and, when the restore
// succeeds, runs it 20k instructions further. It reports whether the
// restore succeeded and, if the machine panicked, the panic with the top
// of its stack.
func flipTrial(build func() *System, blob []byte) (restored bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 1200 {
				stack = stack[:1200]
			}
			panicked = fmt.Sprintf("panicked: %v\n%s", r, stack)
		}
	}()
	m := build()
	if err := m.RestoreState(blob); err != nil {
		return false, ""
	}
	m.Run(m.OrigInstrs() + 20_000)
	return true, ""
}
