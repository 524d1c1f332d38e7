package streambuf

import "testing"

// benchPort grants every fill at a fixed latency and records nothing, so a
// long benchmark run does not grow a fill log.
type benchPort struct{}

func (benchPort) StartFill(lineAddr uint64, now int64) (int64, bool) { return now + 200, true }

// benchMiss is one L1 miss of the replayed stream.
type benchMiss struct{ pc, addr uint64 }

const benchMisses = 1 << 16

// benchStream is the fixed miss stream the layer bench replays: streams PCs
// in turn, each walking its own region one line at a time.
func benchStream(streams int) []benchMiss {
	ms := make([]benchMiss, benchMisses)
	for i := range ms {
		k := uint64(i % streams)
		ms[i] = benchMiss{pc: 0x1000 + k*8, addr: k<<40 + uint64(i/streams)*64}
	}
	return ms
}

// BenchmarkStreamBuffers is the stream buffers' layer bench on the paper's
// 8x8 configuration: each op is one L1 miss, which first asks the buffers
// for its line and then trains, the order memsys.Hierarchy.Load uses.
// "storm" walks 32 streams, four per buffer, so most misses find no stream
// and every allocation meets protected buffers (the art, galgel and swim
// shape); "supply" walks 4, so nearly every miss is supplied (applu,
// facerec). A replay past the stream's end continues each walk where it
// stopped.
func BenchmarkStreamBuffers(b *testing.B) {
	for _, bc := range []struct {
		name    string
		streams int
	}{{"storm", 32}, {"supply", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(DefaultConfig(), benchPort{})
			stream := benchStream(bc.streams)
			span := uint64(benchMisses/bc.streams) * 64
			now := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := stream[i&(benchMisses-1)]
				addr := m.addr + uint64(i/benchMisses)*span
				s.Lookup(addr>>6, now)
				s.Train(m.pc, addr, now, true)
				now += 4
			}
			b.ReportMetric(float64(s.Stats.Supplies)/float64(b.N), "supplies/op")
		})
	}
}
