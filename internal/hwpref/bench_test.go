package hwpref

import (
	"math/rand/v2"
	"testing"
)

// benchPort grants every fill at a fixed latency and records nothing, so a
// long benchmark run does not grow a fill log.
type benchPort struct{}

func (benchPort) StartFill(lineAddr uint64, now int64) (int64, bool) { return now + 200, true }

// benchStream is the fixed load stream the selector bench replays: eight
// PCs, four walking arrays at different strides and four chasing
// pseudo-random lines, with each load an L1 miss at probability missFrac.
// The seed is fixed, so every run (and every commit) replays the same loads.
func benchStream(n int, missFrac float64) []access {
	rng := rand.New(rand.NewPCG(1, 2))
	strides := [4]uint64{8, 64, 192, 4096}
	var cursor [8]uint64
	for k := range cursor {
		cursor[k] = uint64(k) << 28
	}
	accs := make([]access, n)
	for i := range accs {
		k := i % 8
		if k < 4 {
			cursor[k] += strides[k]
		} else {
			cursor[k] = uint64(k)<<28 | rng.Uint64N(1<<20)<<6
		}
		accs[i] = access{pc: 0x1000 + uint64(k)*8, addr: cursor[k], miss: rng.Float64() < missFrac}
	}
	return accs
}

// BenchmarkSelectorTrain is the arsenal selector's layer bench: the full
// arsenal under the default epoch shape replays a fixed load stream, one
// committed load per op. A miss first asks the buffer for its line and then
// trains, the order memsys.Hierarchy.Load uses. "hits" is the LoadFast
// stream (no misses); "mixed" misses ~10% of loads.
func BenchmarkSelectorTrain(b *testing.B) {
	for _, bc := range []struct {
		name     string
		missFrac float64
	}{{"hits", 0}, {"mixed", 0.1}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			s := New(cfg, DefaultSelectorConfig(), benchPort{}, Arsenal(cfg)...)
			stream := benchStream(1<<14, bc.missFrac)
			now := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := stream[i&(len(stream)-1)]
				if a.miss {
					s.Lookup(a.addr>>6, now)
				}
				s.Train(a.pc, a.addr, now, a.miss)
				now += 4
			}
		})
	}
}
