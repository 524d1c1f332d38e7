package hwpref

import (
	"reflect"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/telemetry"
)

// The backend conformance suite: every backend runs scripted access streams
// — sequential, strided, pointer-chase, random — through a single-backend
// selector with a recording fill port, and the issued-prefetch sequence must
// match a hand-computed reference exactly. A second leg snapshots each
// backend mid-stream and proves the restored half replays the original's
// fills bit for bit. These are differential anchors: any change to a
// predictor's training rule, proposal order, or serialization shows up as a
// concrete line-address diff, not a statistical drift.

// testPort records StartFill calls in order and can deny specific lines
// (the real port refuses fills for lines already cached).
type testPort struct {
	latency int64
	deny    map[uint64]bool
	fills   []uint64
}

func (p *testPort) StartFill(lineAddr uint64, now int64) (int64, bool) {
	if p.deny[lineAddr] {
		return 0, false
	}
	p.fills = append(p.fills, lineAddr)
	return now + p.latency, true
}

// access is one scripted committed load.
type access struct {
	pc, addr uint64
	miss     bool
}

// drive feeds the stream through Train with a clock advancing 10 cycles per
// load.
func drive(s *Selector, accs []access, now *int64) {
	for _, a := range accs {
		s.Train(a.pc, a.addr, *now, a.miss)
		*now += 10
	}
}

// single builds a one-backend selector (the static configuration: the epoch
// machinery is inert) over a recording port.
func single(b Backend) (*Selector, *testPort) {
	port := &testPort{latency: 100}
	return New(DefaultConfig(), SelectorConfig{}, port, b), port
}

// missLines turns line numbers into an all-miss access stream at a fixed PC.
func missLines(pc uint64, lines ...uint64) []access {
	accs := make([]access, len(lines))
	for i, l := range lines {
		accs[i] = access{pc: pc, addr: l * 64, miss: true}
	}
	return accs
}

// Scripted streams. The random stream's deltas are all distinct and
// non-zero, so no per-PC stride ever repeats and no (d1,d2) delta pair ever
// recurs — the reference for both learners is silence.
func seqStream(n int) []access {
	lines := make([]uint64, n)
	for i := range lines {
		lines[i] = uint64(i)
	}
	return missLines(0x100, lines...)
}

func strideStream(n int) []access {
	accs := make([]access, n)
	for i := range accs {
		accs[i] = access{pc: 0x40, addr: uint64(i) * 192, miss: true} // 3 lines/step
	}
	return accs
}

func chaseStream() []access {
	return missLines(0x200, 0, 3, 4, 7, 8, 11, 12, 15) // deltas 3,1,3,1,...
}

func randomStream() []access {
	return missLines(0x300, 0, 7, 9, 30, 34, 100, 111, 180, 203, 500)
}

// TestBackendFillSequences is the conformance matrix. References are
// hand-derived from each predictor's definition:
//
//   - next-line on lines 0..5: the first miss fills L+1..L+4; each later
//     miss finds all but the last proposal already buffered and extends the
//     run by one line.
//   - stride at 192 bytes/step: the table entry reaches confidence 2 on the
//     4th access (init, stride-learn, conf 1, conf 2), then every miss
//     proposes 4 strided lines (3 lines apart) with earlier ones deduped.
//   - ghb on the 3,1,3,1 pointer chase: the (3,1) and (1,3) delta pairs
//     recur from the 5th miss on, and each recurrence replays exactly one
//     history delta before hitting the not-yet-written ring slot.
//   - random: stride and ghb must stay silent — no stable stride, no
//     recurring delta pair.
func TestBackendFillSequences(t *testing.T) {
	cases := []struct {
		name    string
		backend func() Backend
		stream  []access
		want    []uint64
	}{
		{"next-line/sequential", func() Backend { return NewNextLine(DefaultConfig()) },
			seqStream(6), []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"stride/strided", func() Backend { return NewStride(DefaultConfig()) },
			strideStream(6), []uint64{12, 15, 18, 21, 24, 27}},
		{"best-offset/sequential", func() Backend { return NewBestOffset(DefaultConfig()) },
			seqStream(10), []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"ghb/pointer-chase", func() Backend { return NewGHB(DefaultConfig()) },
			chaseStream(), []uint64{11, 12, 15, 16}},
		{"stride/random", func() Backend { return NewStride(DefaultConfig()) },
			randomStream(), nil},
		{"ghb/random", func() Backend { return NewGHB(DefaultConfig()) },
			randomStream(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, port := single(tc.backend())
			now := int64(0)
			drive(s, tc.stream, &now)
			if !reflect.DeepEqual(port.fills, tc.want) && !(len(port.fills) == 0 && len(tc.want) == 0) {
				t.Fatalf("issued fills = %v, want %v", port.fills, tc.want)
			}
		})
	}
}

// TestBestOffsetConverges: on a stride-3 stream the offsets 3, 6, and 12 all
// score every learning round, and the round cap ends the phase with the tie
// broken toward the smallest — the stream's true stride. After the first
// phase every trigger proposes lineAddr+3.
func TestBestOffsetConverges(t *testing.T) {
	b := NewBestOffset(DefaultConfig()).(*bestOffset)
	s, port := single(b)
	lines := make([]uint64, 200)
	for i := range lines {
		lines[i] = uint64(i) * 3
	}
	now := int64(0)
	drive(s, missLines(0x500, lines...), &now)
	if b.best != 3 || !b.on {
		t.Fatalf("best-offset learned offset %d (on=%v), want 3 (on)", b.best, b.on)
	}
	// The last triggers run with the learned offset: line 3i proposes 3i+3.
	last := port.fills[len(port.fills)-1]
	if want := lines[len(lines)-1] + 3; last != want {
		t.Fatalf("last fill = %d, want %d (learned offset applied)", last, want)
	}
}

// TestSharedBufferEviction pins down the engine semantics: FIFO eviction
// debited to the issuer, supply crediting, and OnSupply follow-ons deduped
// against surviving lines.
func TestSharedBufferEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferLines = 2
	port := &testPort{latency: 100}
	s := New(cfg, SelectorConfig{}, port, NewNextLine(cfg))
	now := int64(0)

	// One miss proposes 4 lines into a 2-line buffer: all four fill, the
	// first two are displaced before use.
	drive(s, missLines(0x10, 0), &now)
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(port.fills, want) {
		t.Fatalf("fills = %v, want %v", port.fills, want)
	}
	st := s.EngineStatsAt(0)
	if st.Fills != 4 || st.EvictedUnused != 2 {
		t.Fatalf("stats = %+v, want Fills 4, EvictedUnused 2", st)
	}
	if s.Contains(1) || s.Contains(2) || !s.Contains(3) || !s.Contains(4) {
		t.Fatalf("buffer should hold exactly lines 3 and 4")
	}

	// Consuming line 3 credits the supply and triggers follow-ons 4..7;
	// 4 is still buffered so only 5, 6, 7 fill (evicting 4 and 5 in turn).
	ready, ok := s.Lookup(3, now)
	if !ok || ready <= 0 {
		t.Fatalf("Lookup(3) = (%d, %v), want a buffered supply", ready, ok)
	}
	if s.Contains(3) {
		t.Fatalf("Lookup must consume the supplied line")
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(port.fills, want) {
		t.Fatalf("fills after supply = %v, want %v", port.fills, want)
	}
	st = s.EngineStatsAt(0)
	if st.Fills != 7 || st.Supplies != 1 || st.EvictedUnused != 4 {
		t.Fatalf("stats = %+v, want Fills 7, Supplies 1, EvictedUnused 4", st)
	}
}

// TestFillsDenied: a port refusal (line already cached) counts against the
// issuer and leaves the buffer untouched.
func TestFillsDenied(t *testing.T) {
	port := &testPort{latency: 100, deny: map[uint64]bool{2: true}}
	s := New(DefaultConfig(), SelectorConfig{}, port, NewNextLine(DefaultConfig()))
	now := int64(0)
	drive(s, missLines(0x10, 0), &now)
	if want := []uint64{1, 3, 4}; !reflect.DeepEqual(port.fills, want) {
		t.Fatalf("fills = %v, want %v", port.fills, want)
	}
	if st := s.EngineStatsAt(0); st.FillsDenied != 1 || st.Fills != 3 {
		t.Fatalf("stats = %+v, want Fills 3, FillsDenied 1", st)
	}
	if s.Contains(2) {
		t.Fatalf("denied line must not enter the buffer")
	}
}

// TestLoadFastContract: Train on a hit must be observable-side-effect-free —
// no fill-port calls, no buffer mutation, no counter movement — across the
// whole arsenal. The guarantee is structural: a hit reaches only the hit
// learners' observeHit, which has no way to propose a line, and never
// Observe or the buffer. This test pins that structure down; it is what
// lets the memsys fast path train on hits and stay bit-identical with the
// slow path.
func TestLoadFastContract(t *testing.T) {
	cfg := DefaultConfig()
	port := &testPort{latency: 100}
	s := New(cfg, DefaultSelectorConfig(), port, Arsenal(cfg)...)
	now := int64(0)
	hits := seqStream(500)
	for i := range hits {
		hits[i].miss = false
	}
	drive(s, hits, &now)
	if len(port.fills) != 0 {
		t.Fatalf("hit-only stream issued fills: %v", port.fills)
	}
	if st := s.TotalStats(); st != (EngineStats{}) {
		t.Fatalf("hit-only stream moved counters: %+v", st)
	}
}

// backendCase pairs each backend with the stream that exercises its
// predictor state (warm tables, part-written rings, mid-phase scores at the
// split point).
func backendCases() []struct {
	name    string
	backend func() Backend
	stream  []access
} {
	cfg := DefaultConfig()
	mixed := append(append(seqStream(20), strideStream(20)...), chaseStream()...)
	return []struct {
		name    string
		backend func() Backend
		stream  []access
	}{
		{"next-line", func() Backend { return NewNextLine(cfg) }, seqStream(40)},
		{"stride", func() Backend { return NewStride(cfg) }, strideStream(40)},
		{"best-offset", func() Backend { return NewBestOffset(cfg) }, seqStream(40)},
		{"ghb", func() Backend { return NewGHB(cfg) }, mixed},
	}
}

// TestBackendCheckpointRoundTrip is the mid-stream snapshot/restore leg: run
// a stream to an odd split point, SaveState, restore into a fresh selector,
// and replay the tail on both. The restored machine must issue the same fill
// sequence and land on identical counters and buffer contents — the
// kill/resume byte-identity contract at backend granularity.
func TestBackendCheckpointRoundTrip(t *testing.T) {
	for _, tc := range backendCases() {
		t.Run(tc.name, func(t *testing.T) {
			split := 17
			s1, port1 := single(tc.backend())
			now1 := int64(0)
			drive(s1, tc.stream[:split], &now1)

			e := checkpoint.NewSaver()
			s1.Checkpoint(e)
			s2, port2 := single(tc.backend())
			d := checkpoint.NewLoader(e.Bytes())
			if s2.Checkpoint(d); d.Err() != nil {
				t.Fatalf("LoadState: %v", d.Err())
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}

			mark := len(port1.fills)
			now2 := now1
			drive(s1, tc.stream[split:], &now1)
			drive(s2, tc.stream[split:], &now2)
			if !reflect.DeepEqual(port1.fills[mark:], port2.fills) {
				t.Fatalf("post-restore fills diverged\noriginal: %v\nrestored: %v",
					port1.fills[mark:], port2.fills)
			}
			if s1.EngineStatsAt(0) != s2.EngineStatsAt(0) {
				t.Fatalf("stats diverged: %+v vs %+v", s1.EngineStatsAt(0), s2.EngineStatsAt(0))
			}
			if !reflect.DeepEqual(s1.buf.lines(), s2.buf.lines()) {
				t.Fatalf("buffer diverged: %+v vs %+v", s1.buf.lines(), s2.buf.lines())
			}
		})
	}
}

// TestSelectorCheckpointRoundTrip does the same for the full arsenal with
// live epoch machinery: the split lands mid-probe, and the restored selector
// must replay the identical decision log, fills, and residency.
func TestSelectorCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	scfg := SelectorConfig{ProbeLoads: 8, ExploitFactor: 2}
	stream := append(append(seqStream(60), strideStream(80)...), chaseStream()...)
	stream = append(stream, seqStream(60)...)

	port1 := &testPort{latency: 100}
	s1 := New(cfg, scfg, port1, Arsenal(cfg)...)
	tr1 := telemetry.New(telemetry.Options{})
	s1.SetTracer(tr1)
	now1 := int64(0)
	drive(s1, stream[:73], &now1) // mid-probe: 73 is inside a probe window

	e := checkpoint.NewSaver()
	s1.Checkpoint(e)
	port2 := &testPort{latency: 100}
	s2 := New(cfg, scfg, port2, Arsenal(cfg)...)
	tr2 := telemetry.New(telemetry.Options{})
	s2.SetTracer(tr2)
	d := checkpoint.NewLoader(e.Bytes())
	if s2.Checkpoint(d); d.Err() != nil {
		t.Fatalf("LoadState: %v", d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// The restored buffer answers membership exactly as the saved one did:
	// same lines in the same order, and Contains agrees on every buffered
	// line and its neighbours.
	buffered := s1.buf.lines()
	if len(buffered) == 0 || !reflect.DeepEqual(s2.buf.lines(), buffered) {
		t.Fatalf("restored buffer %+v, saved %+v (want equal and non-empty)", s2.buf.lines(), buffered)
	}
	for _, bl := range buffered {
		for _, l := range []uint64{bl.line - 1, bl.line, bl.line + 1} {
			if s1.Contains(l) != s2.Contains(l) {
				t.Fatalf("Contains(%d) = %v after restore, %v before", l, s2.Contains(l), s1.Contains(l))
			}
		}
	}

	mark, decMark := len(port1.fills), len(decisions(tr1))
	now2 := now1
	drive(s1, stream[73:], &now1)
	drive(s2, stream[73:], &now2)
	if !reflect.DeepEqual(port1.fills[mark:], port2.fills) {
		t.Fatalf("post-restore fills diverged\noriginal: %v\nrestored: %v",
			port1.fills[mark:], port2.fills)
	}
	if got, want := decisions(tr2), decisions(tr1)[decMark:]; len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restore decisions diverged\noriginal: %+v\nrestored: %+v", want, got)
	}
	if s1.DecisionCount() != s2.DecisionCount() {
		t.Fatalf("decision counts diverged: %d vs %d", s1.DecisionCount(), s2.DecisionCount())
	}
	if !reflect.DeepEqual(s1.Residency(), s2.Residency()) {
		t.Fatalf("residency diverged: %v vs %v", s1.Residency(), s2.Residency())
	}
	if s1.Rounds() != s2.Rounds() || s1.Switches() != s2.Switches() || s1.active != s2.active {
		t.Fatalf("epoch state diverged: rounds %d/%d switches %d/%d active %d/%d",
			s1.Rounds(), s2.Rounds(), s1.Switches(), s2.Switches(), s1.active, s2.active)
	}
}

// TestLoadStateRejectsWrongArsenal: structural mismatches fail loudly
// instead of silently diverging.
func TestLoadStateRejectsWrongArsenal(t *testing.T) {
	cfg := DefaultConfig()
	full, _ := single(NewNextLine(cfg))
	e := checkpoint.NewSaver()
	full.Checkpoint(e)
	load := func(s *Selector) error {
		d := checkpoint.NewLoader(e.Bytes())
		s.Checkpoint(d)
		return d.Err()
	}

	t.Run("backend-count", func(t *testing.T) {
		s, _ := fullArsenal(cfg)
		if err := load(s); err == nil {
			t.Fatalf("restoring a 1-backend checkpoint into a 4-backend arsenal succeeded")
		}
	})
	t.Run("backend-name", func(t *testing.T) {
		s, _ := single(NewGHB(cfg))
		if err := load(s); err == nil {
			t.Fatalf("restoring a next-line checkpoint into a ghb selector succeeded")
		}
	})
}

func fullArsenal(cfg Config) (*Selector, *testPort) {
	port := &testPort{latency: 100}
	return New(cfg, DefaultSelectorConfig(), port, Arsenal(cfg)...), port
}
