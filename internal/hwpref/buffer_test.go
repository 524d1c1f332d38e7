package hwpref

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"tridentsp/internal/checkpoint"
)

// The shared buffer's differential oracle: lineBuf (slot pool, FIFO links,
// hashed line index) against refBuf, a slice-backed model of the same
// semantics written the plain way — a linear scan per lookup, eviction off
// the front, removal in place. Random sequences of issue, take and Contains
// must leave both with the same fills in the same order, the same per-backend
// eviction and supply attribution, the same membership answers and the same
// checkpoint bytes, including after the buffer is restored from its own
// checkpoint mid-sequence.

// refBuf is the reference model of the shared buffer.
type refBuf struct {
	capacity int
	buf      []bufLine
	stats    []EngineStats
	port     *testPort
}

func (r *refBuf) holds(line uint64) bool {
	for _, bl := range r.buf {
		if bl.line == line {
			return true
		}
	}
	return false
}

func (r *refBuf) issue(i int, cands []uint64, now int64) {
	for _, line := range cands {
		if r.holds(line) {
			continue
		}
		ready, ok := r.port.StartFill(line, now)
		if !ok {
			r.stats[i].FillsDenied++
			continue
		}
		if len(r.buf) >= r.capacity {
			r.stats[r.buf[0].by].EvictedUnused++
			r.buf = r.buf[1:]
		}
		r.buf = append(r.buf, bufLine{line: line, ready: ready, by: i})
		r.stats[i].Fills++
	}
}

func (r *refBuf) take(line uint64) (int64, bool) {
	for i, bl := range r.buf {
		if bl.line == line {
			r.stats[bl.by].Supplies++
			r.buf = append(r.buf[:i], r.buf[i+1:]...)
			return bl.ready, true
		}
	}
	return 0, false
}

func (r *refBuf) checkpointBytes() []byte {
	c := checkpoint.NewSaver()
	checkpoint.Slice(c, &r.buf, func(c *checkpoint.Codec, bl *bufLine) {
		c.U64(&bl.line)
		c.I64(&bl.ready)
		c.Int(&bl.by)
	})
	return c.Bytes()
}

func bufBytes(b *lineBuf, backends int) []byte {
	c := checkpoint.NewSaver()
	b.checkpoint(c, backends)
	return c.Bytes()
}

// bufferBackends is how many issuers the differential runs attribute to.
const bufferBackends = 3

// runBufferOps drives a selector's buffer and the reference through the
// operations ops encodes, failing at the first disagreement. Each op is a
// kind byte then its operands; lines come from a universe about twice the
// capacity, spread over high address bits so hash chains collide, and the
// port denies every line ≡ 3 mod 7.
func runBufferOps(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	deny := map[uint64]bool{}
	universe := 2*capacity + 8
	lineOf := func(v byte) uint64 {
		l := uint64(int(v) % universe)
		return l | uint64(v>>6)<<40
	}
	for v := 0; v < 256; v++ {
		if l := lineOf(byte(v)); l%7 == 3 {
			deny[l] = true
		}
	}
	cfg := DefaultConfig()
	cfg.BufferLines = capacity
	backends := make([]Backend, bufferBackends)
	for i := range backends {
		backends[i] = &stubBackend{id: string(rune('a' + i))}
	}
	port := &testPort{latency: 100, deny: deny}
	s := New(cfg, SelectorConfig{ProbeLoads: 1 << 30, ExploitFactor: 1}, port, backends...)
	ref := &refBuf{capacity: capacity, stats: make([]EngineStats, bufferBackends),
		port: &testPort{latency: 100, deny: deny}}

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		v := ops[0]
		ops = ops[1:]
		return v
	}
	now := int64(0)
	for step := 0; len(ops) > 0; step++ {
		now += 7
		switch k := next(); k % 5 {
		case 0, 1: // issue up to five proposals for one backend
			by := int(next()) % bufferBackends
			cands := make([]uint64, 1+int(next())%5)
			for i := range cands {
				cands[i] = lineOf(next())
			}
			s.issue(by, cands, now)
			ref.issue(by, cands, now)
		case 2: // take
			line := lineOf(next())
			r1, ok1 := s.take(line)
			r2, ok2 := ref.take(line)
			if r1 != r2 || ok1 != ok2 {
				t.Fatalf("step %d: take(%#x) = (%d, %v), reference (%d, %v)", step, line, r1, ok1, r2, ok2)
			}
		case 3: // membership
			line := lineOf(next())
			if got, want := s.Contains(line), ref.holds(line); got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, line, got, want)
			}
		case 4: // checkpoint bytes, then carry on from a restored buffer
			got, want := bufBytes(&s.buf, bufferBackends), ref.checkpointBytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: checkpoint bytes differ\n got %x\nwant %x", step, got, want)
			}
			// Restore into a buffer that is already full of other lines:
			// loading must replace its contents, not add to them.
			restored := newLineBuf(capacity)
			for k := 0; k < capacity; k++ {
				restored.push(bufLine{line: 1<<50 + uint64(k), by: k % bufferBackends})
			}
			d := checkpoint.NewLoader(got)
			restored.checkpoint(d, bufferBackends)
			if err := d.Finish(); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			s.buf = restored
		}
		if !slices.Equal(port.fills, ref.port.fills) {
			t.Fatalf("step %d: fills %v, reference %v", step, port.fills, ref.port.fills)
		}
		for i := range ref.stats {
			if s.EngineStatsAt(i) != ref.stats[i] {
				t.Fatalf("step %d: backend %d stats %+v, reference %+v", step, i, s.EngineStatsAt(i), ref.stats[i])
			}
		}
		if got := s.buf.lines(); !slices.Equal(got, ref.buf) {
			t.Fatalf("step %d: buffer %+v, reference %+v", step, got, ref.buf)
		}
		if err := s.buf.checkIndex(); err != "" {
			t.Fatalf("step %d: %s", step, err)
		}
	}
}

// checkIndex verifies that the hash chains hold exactly the live lines,
// each in its own bucket. A stale link could otherwise close a cycle that
// find would walk forever, so every walk is bounded.
func (b *lineBuf) checkIndex() string {
	live := len(b.lines())
	indexed := 0
	for h, i := range b.bucket {
		for steps := 0; i != nilSlot; i, steps = b.slots[i].chain, steps+1 {
			if steps >= len(b.slots) {
				return fmt.Sprintf("bucket %d: chain does not end", h)
			}
			if got := b.bucketOf(b.slots[i].line); got != h {
				return fmt.Sprintf("line %#x chained in bucket %d, hashes to %d", b.slots[i].line, h, got)
			}
			indexed++
		}
	}
	if indexed != live {
		return fmt.Sprintf("index holds %d lines, FIFO %d", indexed, live)
	}
	return ""
}

// TestLineBufMatchesReference runs seeded random sequences at the edge
// capacities (one line, two lines) and the figures' 64.
func TestLineBufMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			ops := make([]byte, 6000)
			for i := range ops {
				ops[i] = byte(rng.Uint32())
			}
			runBufferOps(t, capacity, ops)
		}
	}
}

// FuzzLineBuf is the same oracle over fuzz-chosen sequences; the first
// byte picks the capacity.
func FuzzLineBuf(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 4, 1, 2, 3, 4, 0, 1, 4, 9, 9, 9, 9, 2, 1, 4})
	f.Add(bytes.Repeat([]byte{2, 0, 1, 4, 5, 6, 7, 8, 2, 5, 3, 6, 4}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runBufferOps(t, []int{1, 2, 64}[int(data[0])%3], data[1:])
	})
}

// TestRestoreRejectsDuplicateLine: a checkpoint whose buffer lists one line
// twice fails, naming the line, instead of loading a buffer whose index
// could find only one of the two.
func TestRestoreRejectsDuplicateLine(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := single(NewNextLine(cfg))
	s.buf.push(bufLine{line: 0x2a40, ready: 5})
	s.buf.push(bufLine{line: 0x2a40, ready: 9}) // push does not dedup; issue does
	e := checkpoint.NewSaver()
	s.Checkpoint(e)

	fresh, _ := single(NewNextLine(cfg))
	d := checkpoint.NewLoader(e.Bytes())
	fresh.Checkpoint(d)
	err := d.Err()
	if err == nil {
		t.Fatalf("restoring a buffer that holds line 0x2a40 twice succeeded")
	}
	if !strings.Contains(err.Error(), "0x2a40") || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("error %q does not name the duplicated line", err)
	}
}
