package streambuf

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"tridentsp/internal/checkpoint"
)

// refStreams is the scan-only engine the holder index replaced: every query
// walks every entry of every active buffer. It shares the engine's state
// types, so contents compare directly, and keeps the old checkpoint walk.
type refStreams struct {
	cfg       Config
	port      FillPort
	table     []strideEntry
	buffers   []buffer
	lineShift int
	Stats     Stats
}

func newRef(cfg Config, port FillPort) *refStreams {
	n := 1
	for n*2 <= cfg.HistoryEntries {
		n *= 2
	}
	s := &refStreams{cfg: cfg, port: port, table: make([]strideEntry, n), buffers: make([]buffer, cfg.NumBuffers)}
	for i := range s.buffers {
		s.buffers[i].entries = make([]bufEntry, 0, cfg.BufferEntries)
	}
	s.lineShift = -1
	for sh := 0; sh < 32; sh++ {
		if 1<<sh == cfg.LineSize {
			s.lineShift = sh
			break
		}
	}
	return s
}

func (s *refStreams) lineOf(addr uint64) uint64 {
	if s.lineShift >= 0 {
		return addr >> uint(s.lineShift)
	}
	return addr / uint64(s.cfg.LineSize)
}

func (s *refStreams) Lookup(lineAddr uint64, now int64) (int64, bool) {
	for bi := range s.buffers {
		b := &s.buffers[bi]
		if !b.active {
			continue
		}
		for ei := range b.entries {
			if b.entries[ei].line != lineAddr {
				continue
			}
			ready := b.entries[ei].ready
			b.entries = append(b.entries[:0], b.entries[ei+1:]...)
			b.lastUse = now
			s.Stats.Supplies++
			s.refillTo(b, now, s.cfg.BufferEntries)
			return ready, true
		}
	}
	return 0, false
}

func (s *refStreams) Contains(lineAddr uint64) bool {
	for bi := range s.buffers {
		b := &s.buffers[bi]
		if !b.active {
			continue
		}
		for _, e := range b.entries {
			if e.line == lineAddr {
				return true
			}
		}
	}
	return false
}

func (s *refStreams) Train(pc, addr uint64, now int64, l1Miss bool) {
	e := &s.table[(pc>>3)&uint64(len(s.table)-1)]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		if e.conf > 0 {
			e.conf--
		}
	}
	if !l1Miss {
		return
	}
	if e.conf >= s.cfg.ConfidenceThreshold && e.stride != 0 {
		s.allocate(addr, e.stride, now)
	}
}

func (s *refStreams) allocate(addr uint64, stride int64, now int64) {
	first := s.nextLine(s.lineOf(addr), addr, stride)
	for bi := range s.buffers {
		b := &s.buffers[bi]
		if !b.active {
			continue
		}
		if b.nextLine == first && b.stride == stride {
			return
		}
		for _, e := range b.entries {
			if e.line == first {
				return
			}
		}
	}
	victim := -1
	for bi := range s.buffers {
		if !s.buffers[bi].active {
			victim = bi
			break
		}
	}
	if victim < 0 {
		victim = 0
		for bi := 1; bi < len(s.buffers); bi++ {
			if s.buffers[bi].lastUse < s.buffers[victim].lastUse {
				victim = bi
			}
		}
		if now-s.buffers[victim].lastUse < reuseProtectCycles {
			return
		}
	}
	b := &s.buffers[victim]
	b.entries = b.entries[:0]
	b.stride = stride
	b.nextLine = first
	b.lastUse = now
	b.active = true
	s.refillTo(b, now, 2)
}

func (s *refStreams) nextLine(curLine uint64, addr uint64, stride int64) uint64 {
	a := addr
	for {
		a = uint64(int64(a) + stride)
		if l := s.lineOf(a); l != curLine {
			return l
		}
	}
}

func (s *refStreams) refillTo(b *buffer, now int64, depth int) {
	if depth > s.cfg.BufferEntries {
		depth = s.cfg.BufferEntries
	}
	lineStride := b.stride / int64(s.cfg.LineSize)
	if lineStride == 0 {
		if b.stride > 0 {
			lineStride = 1
		} else {
			lineStride = -1
		}
	}
	attempts := 2 * s.cfg.BufferEntries
	for len(b.entries) < depth && attempts > 0 {
		attempts--
		line := b.nextLine
		b.nextLine = uint64(int64(b.nextLine) + lineStride)
		ready, ok := s.port.StartFill(line, now)
		if !ok {
			s.Stats.FillsDenied++
			continue
		}
		b.entries = append(b.entries, bufEntry{line: line, ready: ready})
		s.Stats.Fills++
	}
}

func (s *refStreams) Checkpoint(c *checkpoint.Codec) {
	c.Mark("streambuf")
	if !c.Count(len(s.table), "stride-table entries") {
		return
	}
	for i := range s.table {
		t := &s.table[i]
		c.U64(&t.pc)
		c.U64(&t.lastAddr)
		c.I64(&t.stride)
		c.U8(&t.conf)
		c.Bool(&t.valid)
	}
	if !c.Count(len(s.buffers), "stream buffers") {
		return
	}
	for i := range s.buffers {
		b := &s.buffers[i]
		checkpoint.Slice(c, &b.entries, func(c *checkpoint.Codec, be *bufEntry) {
			c.U64(&be.line)
			c.I64(&be.ready)
		})
		c.U64(&b.nextLine)
		c.I64(&b.stride)
		c.I64(&b.lastUse)
		c.Bool(&b.active)
	}
	c.U64(&s.Stats.Supplies)
	c.U64(&s.Stats.Fills)
	c.U64(&s.Stats.FillsDenied)
}

// refusingPort grants or refuses a fill as a pure function of (line, now),
// refusing about one in eight, so two engines driven alike see the same
// answers however many ports serve them.
type refusingPort struct{}

func (refusingPort) StartFill(line uint64, now int64) (int64, bool) {
	h := (line ^ uint64(now)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	if h>>61 == 0 {
		return 0, false
	}
	return now + 40 + int64(line%61), true
}

// opSource supplies the choices that drive a differential sequence.
type opSource interface{ intn(n int) int }

type randSource struct{ r *rand.Rand }

func (s randSource) intn(n int) int { return s.r.IntN(n) }

// byteSource reads choices from fuzz input; past its end every choice is 0.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) intn(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % n
}

// diffStrides are the byte strides the driven PCs walk. Sub-line, line,
// multi-line and negative strides make streams overlap, so one line can sit
// in two buffers; the 144-, 610- and 987-line strides put two lines of one
// buffer in the same holder slot at 256 and 1024 slots.
var diffStrides = []int64{8, 24, 64, 128, -64, -192, 144 * 64, 610 * 64, 987 * 64}

// driver runs one engine and its reference through the same calls and
// fails at the first difference in a return value, Stats, buffer contents,
// the stride table, checkpoint bytes or the holder-index invariant.
type driver struct {
	t      testing.TB
	cfg    Config
	src    opSource
	s      *StreamBuffers
	ref    *refStreams
	now    int64
	pcs    []diffPC
	shared int // Lookups whose line two buffers held
	slots  int // same-slot entry pairs seen in one buffer, summed over steps
	want   []uint64
}

type diffPC struct {
	pc, addr uint64
	stride   int64
}

func newDriver(t testing.TB, cfg Config, src opSource) *driver {
	d := &driver{t: t, cfg: cfg, src: src, s: New(cfg, refusingPort{}), ref: newRef(cfg, refusingPort{})}
	// More PCs than buffers, all walking one 16 KiB region.
	for i := 0; i < cfg.NumBuffers+3; i++ {
		d.pcs = append(d.pcs, diffPC{
			pc:     0x1000 + uint64(i)*8,
			addr:   d.regionAddr(),
			stride: diffStrides[src.intn(len(diffStrides))],
		})
	}
	return d
}

func (d *driver) regionAddr() uint64 {
	return 0x100000 + uint64(d.src.intn(256))*64 + uint64(d.src.intn(8))*8
}

// pickLine chooses a line to look up: one a reference buffer holds, one a
// PC is about to touch, or one from the region.
func (d *driver) pickLine() uint64 {
	switch d.src.intn(4) {
	case 0, 1:
		b := &d.ref.buffers[d.src.intn(len(d.ref.buffers))]
		if len(b.entries) > 0 {
			return b.entries[d.src.intn(len(b.entries))].line
		}
	case 2:
		return d.pcs[d.src.intn(len(d.pcs))].addr / uint64(d.cfg.LineSize)
	}
	return d.regionAddr() / uint64(d.cfg.LineSize)
}

// step performs one random call on both engines and checks them.
func (d *driver) step() {
	d.now += 1 + int64(d.src.intn(60))
	if d.src.intn(32) == 0 {
		d.now += reuseProtectCycles + 1
	}
	switch op := d.src.intn(10); {
	case op < 6:
		p := &d.pcs[d.src.intn(len(d.pcs))]
		if d.src.intn(40) == 0 {
			p.addr = d.regionAddr()
		}
		miss := d.src.intn(4) != 0
		if miss {
			d.lookup(p.addr / uint64(d.cfg.LineSize))
		}
		d.s.Train(p.pc, p.addr, d.now, miss)
		d.ref.Train(p.pc, p.addr, d.now, miss)
		p.addr = uint64(int64(p.addr) + p.stride)
	case op < 8:
		d.lookup(d.pickLine())
	default:
		line := d.pickLine()
		if got, want := d.s.Contains(line), d.ref.Contains(line); got != want {
			d.t.Fatalf("Contains(%#x) = %v, reference %v", line, got, want)
		}
	}
	d.check(false)
}

func (d *driver) lookup(line uint64) {
	holders := 0
	for _, b := range d.ref.buffers {
		for _, e := range b.entries {
			if e.line == line {
				holders++
			}
		}
	}
	if holders > 1 {
		d.shared++
	}
	r, ok := d.s.Lookup(line, d.now)
	rr, rok := d.ref.Lookup(line, d.now)
	if r != rr || ok != rok {
		d.t.Fatalf("Lookup(%#x, %d) = (%d, %v), reference (%d, %v)", line, d.now, r, ok, rr, rok)
	}
}

// check compares the engines; full adds the stride table and checkpoint
// bytes.
func (d *driver) check(full bool) {
	t := d.t
	if d.s.Stats != d.ref.Stats {
		t.Fatalf("Stats = %+v, reference %+v", d.s.Stats, d.ref.Stats)
	}
	for i := range d.s.buffers {
		b, rb := &d.s.buffers[i], &d.ref.buffers[i]
		if b.nextLine != rb.nextLine || b.stride != rb.stride || b.lastUse != rb.lastUse ||
			b.active != rb.active || !slices.Equal(b.entries, rb.entries) {
			t.Fatalf("buffer %d = %+v, reference %+v", i, *b, *rb)
		}
	}
	// The invariant: bit i of a slot is set exactly when buffer i holds an
	// entry whose line hashes to that slot.
	if d.want == nil {
		d.want = make([]uint64, len(d.s.holders))
	}
	want := d.want
	clear(want)
	for bi, b := range d.s.buffers {
		for j, e := range b.entries {
			slot := d.s.slotOf(e.line)
			for _, f := range b.entries[:j] {
				if d.s.slotOf(f.line) == slot {
					d.slots++
				}
			}
			want[slot] |= 1 << uint(bi)
		}
	}
	if !slices.Equal(d.s.holders, want) {
		for slot := range want {
			if got := d.s.holders[slot]; got != want[slot] {
				t.Fatalf("holder slot %d = %#x, want %#x (buffers %+v)", slot, got, want[slot], d.s.buffers)
			}
		}
	}
	if !full {
		return
	}
	if !slices.Equal(d.s.table, d.ref.table) {
		t.Fatal("stride table diverged from the reference")
	}
	if got, want := saveBytes(d.s), saveBytes(d.ref); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes differ from the reference (%d vs %d bytes)", len(got), len(want))
	}
}

func saveBytes(e interface{ Checkpoint(*checkpoint.Codec) }) []byte {
	c := checkpoint.NewSaver()
	e.Checkpoint(c)
	return c.Bytes()
}

// restoreIntoDirty cuts a checkpoint of the engine and loads it into a
// second engine that already holds other lines, which then replaces the
// first: the restore must rebuild the holder index from scratch.
func (d *driver) restoreIntoDirty(seed uint64) {
	data := saveBytes(d.s)
	other := newDriver(d.t, d.cfg, randSource{rand.New(rand.NewPCG(seed, 99))})
	for i := 0; i < 200; i++ {
		other.step()
	}
	c := checkpoint.NewLoader(data)
	other.s.Checkpoint(c)
	if err := c.Finish(); err != nil {
		d.t.Fatalf("restore: %v", err)
	}
	d.s = other.s
	d.check(true)
}

func (d *driver) run(steps int, restoreAt int, seed uint64) {
	for i := 0; i < steps; i++ {
		if i == restoreAt {
			d.restoreIntoDirty(seed)
		}
		d.step()
		if i%64 == 63 {
			d.check(true)
		}
	}
	d.check(true)
}

var diffConfigs = []struct {
	name string
	cfg  func() Config
}{
	{"8x8", DefaultConfig},
	{"4x4", Config4x4},
	{"3x5", func() Config {
		c := DefaultConfig()
		c.NumBuffers, c.BufferEntries = 3, 5
		return c
	}},
}

// TestStreamBuffersMatchReference holds the indexed engine to the scan it
// replaced over random Train/Lookup/Contains sequences, with a restore into
// a dirty engine mid-sequence.
func TestStreamBuffersMatchReference(t *testing.T) {
	for _, dc := range diffConfigs {
		t.Run(dc.name, func(t *testing.T) {
			shared, slots, supplies := 0, 0, uint64(0)
			for seed := uint64(1); seed <= 6; seed++ {
				d := newDriver(t, dc.cfg(), randSource{rand.New(rand.NewPCG(seed, 7))})
				d.run(3000, 1500, seed)
				shared += d.shared
				slots += d.slots
				supplies += d.ref.Stats.Supplies
			}
			// The sequences must reach the cases the index could get
			// wrong: a line two buffers hold, and two entries of one
			// buffer in one slot.
			if shared == 0 || slots == 0 || supplies == 0 {
				t.Fatalf("sequences too tame: %d shared-line lookups, %d same-slot entry pairs, %d supplies", shared, slots, supplies)
			}
		})
	}
}

// FuzzStreamBuffers drives the differential check from fuzz input: the
// first byte picks the configuration, the rest the calls. An input is a
// long call sequence, so fuzz with a short -fuzzminimizetime (say 2s): at
// the default minute per new input the fuzzer spends its time minimizing.
func FuzzStreamBuffers(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 11))
		b := make([]byte, 512)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<13 {
			return
		}
		cfg := diffConfigs[int(data[0])%len(diffConfigs)].cfg()
		src := &byteSource{b: data[1:]}
		d := newDriver(t, cfg, src)
		steps := len(data) / 4
		d.run(steps, steps/2, uint64(data[0]))
	})
}

// TestRestoreRejectsCorruptStreamBuffer: a checkpoint whose buffer state no
// run can produce fails to load, naming the buffer.
func TestRestoreRejectsCorruptStreamBuffer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(b *buffer)
		want    string
	}{
		{"inactive with entries", func(b *buffer) { b.active = false }, "stream buffer 1 is inactive but lists"},
		{"line listed twice", func(b *buffer) { b.entries[1].line = b.entries[0].line }, "stream buffer 1 lists line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(DefaultConfig(), refusingPort{})
			// Two streams far apart, so buffer 1 holds entries.
			for i := 0; i < 5; i++ {
				s.Train(0x100, uint64(0x10000+i*64), int64(i*10), true)
				s.Train(0x200, uint64(0x90000+i*64), int64(i*10+5), true)
			}
			if len(s.buffers[1].entries) < 2 {
				t.Fatalf("setup: buffer 1 holds %d entries", len(s.buffers[1].entries))
			}
			tc.corrupt(&s.buffers[1])
			data := saveBytes(s)
			c := checkpoint.NewLoader(data)
			New(DefaultConfig(), refusingPort{}).Checkpoint(c)
			err := c.Finish()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestNewRefusesTooManyBuffers: a holder-index mask has one bit per buffer.
func TestNewRefusesTooManyBuffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBuffers = 64
	New(cfg, refusingPort{})
	cfg.NumBuffers = 65
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "65 buffers") {
			t.Fatalf("New(65 buffers) panicked with %v, want a message naming 65 buffers", r)
		}
	}()
	New(cfg, refusingPort{})
}
