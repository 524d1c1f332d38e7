package program

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
)

// Tests for the diff-encoded memory checkpoints (DESIGN §12.2, §15): full
// machine checkpoints and a sampled run's region-of-interest snapshots are
// written as a sparse diff against the program's immutable paged image, so
// the blob scales with the written working set instead of the footprint.

// diffProgram builds a small program whose image spans several pages.
func diffProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("diff", 0x1000, 0x100000)
	b.Nop()
	b.Halt()
	b.AllocWords(1, 2, 3)
	p := b.MustBuild()
	// Spread data across distinct pages (page = 512 words = 4KB).
	p.Data.Store(0x10000, 10)
	p.Data.Store(0x20000, 20)
	p.Data.Store(0x30000, 30)
	return p
}

// roundTrip encodes m as a diff against base and decodes it into a fresh
// clone of base, failing the test on any encode/decode error.
func roundTrip(t *testing.T, m *Memory, base *Memory, p *Program) *Memory {
	t.Helper()
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, base)
	d := checkpoint.NewLoader(e.Bytes())
	out := NewMemory(p)
	if out.CheckpointDiff(d, base); d.Err() != nil {
		t.Fatalf("LoadStateDiff: %v", d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return out
}

func TestSaveStateDiffRoundTrip(t *testing.T) {
	p := diffProgram(t)
	base := p.Image()
	m := NewMemory(p)
	// Dirty one existing page and map one the image doesn't have.
	m.Store(0x10000, 11)
	m.Store(0x80000, 88)
	got := roundTrip(t, m, base, p)
	if !reflect.DeepEqual(got.Snapshot(), m.Snapshot()) {
		t.Fatalf("snapshot mismatch after diff round-trip:\n got %v\nwant %v",
			got.Snapshot(), m.Snapshot())
	}
	if got.Footprint() != m.Footprint() {
		t.Errorf("footprint = %d, want %d", got.Footprint(), m.Footprint())
	}
	// Untouched pages must come back shared with the base image (the same
	// copy-on-write shape a fresh clone has), not as private copies.
	if got.page(0x20000) != base.page(0x20000) {
		t.Error("untouched page not shared with base after restore")
	}
	if got.page(0x10000) == base.page(0x10000) {
		t.Error("dirtied page restored as the base's page")
	}
	// The restored memory stays independently writable.
	got.Store(0x20000, 99)
	if base.Load(0x20000) != 20 {
		t.Error("write to restored memory reached the base image")
	}
}

// TestSaveStateDiffEmpty: a freshly cloned memory diffs to an empty page
// set, and restoring that diff reproduces full base sharing.
func TestSaveStateDiffEmpty(t *testing.T) {
	p := diffProgram(t)
	base := p.Image()
	m := NewMemory(p)
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, base)
	if full := len(encodeFull(m)); len(e.Bytes()) >= full {
		t.Errorf("empty diff (%dB) not smaller than full snapshot (%dB)",
			len(e.Bytes()), full)
	}
	got := roundTrip(t, m, base, p)
	ok := true
	got.forEachPage(func(idx uint64, pg *memPage) {
		if base.page(idx<<memPageShift) != pg {
			ok = false
		}
	})
	if !ok {
		t.Error("clean restore holds private pages; all should be shared")
	}
}

// encodeFull returns m diffed against an empty base — every mapped page
// travels — as the size a dense snapshot would have, for comparison.
func encodeFull(m *Memory) []byte {
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, &Memory{})
	return e.Bytes()
}

// TestLoadStateDiffRejectsOtherImage: a diff cut against one image and
// loaded against an image of a different size is refused as corrupt, with
// both mapped-word counts in the message, instead of being applied to data
// it was never cut from (a regenerated workload, say).
func TestLoadStateDiffRejectsOtherImage(t *testing.T) {
	p := diffProgram(t)
	m := NewMemory(p)
	m.Store(0x10000, 11)
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, p.Image())

	q := diffProgram(t)
	q.Data.Store(0x40000, 40)
	other := q.Image()
	d := checkpoint.NewLoader(e.Bytes())
	NewMemory(q).CheckpointDiff(d, other)
	err := d.Err()
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("LoadStateDiff against another image: err = %v, want ErrCorrupt", err)
	}
	for _, n := range []int{p.Image().Footprint(), other.Footprint()} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("error %q does not name mapped-word count %d", err, n)
		}
	}
}

// TestPristineSharing: for a predecoded master, Pristine returns the master
// itself — zero-copy, sharing the instruction cache and paged image with
// every run — while a program without a master falls back to a writable-safe
// deep code copy.
func TestPristineSharing(t *testing.T) {
	b := NewBuilder("pristine", 0x1000, 0x10000)
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	p.Predecode()
	c := p.Clone()
	if c.Pristine() != p {
		t.Error("clone of a predecoded master should return the master")
	}
	if c.Image() != p.Image() {
		t.Error("clone does not share the master's paged image")
	}
	// Patching the clone's live code must not reach the shared pristine.
	c.Code[0] = isa.Encode(isa.Inst{Op: isa.HALT})
	if isa.Decode(p.Code[0]).Op != isa.NOP {
		t.Error("patch reached the pristine master")
	}

	q := b2Program(t)
	pr := q.Pristine()
	if pr == q {
		t.Error("non-master Pristine should be a copy")
	}
	q.Code[0] = isa.Encode(isa.Inst{Op: isa.HALT})
	if isa.Decode(pr.Code[0]).Op != isa.NOP {
		t.Error("non-master pristine shares code with the live image")
	}
}

// b2Program builds a second small program with no predecoded master.
func b2Program(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("plain", 0x1000, 0x10000)
	b.Nop()
	b.Halt()
	return b.MustBuild()
}

// TestLoadStateDiffGrowsTableOnce: a diff restore that maps four
// consecutive pages just past the image's page table reallocates the table
// at most once. Every reallocation at least doubles the capacity, so a
// final capacity under four times the fresh clone's proves it; growing by
// one reallocation per page lands at sixteen times.
func TestLoadStateDiffGrowsTableOnce(t *testing.T) {
	p := diffProgram(t)
	base := p.Image()
	m := NewMemory(p)
	first := uint64(len(base.tab))
	for i := uint64(0); i < 4; i++ {
		m.Store((first+i)<<memPageShift<<3, 100+i)
	}
	out := NewMemory(p)
	capBefore := cap(out.tab)
	e := checkpoint.NewSaver()
	m.CheckpointDiff(e, base)
	d := checkpoint.NewLoader(e.Bytes())
	if out.CheckpointDiff(d, base); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if !reflect.DeepEqual(out.Snapshot(), m.Snapshot()) {
		t.Fatal("restored memory differs from the saved one")
	}
	if got := cap(out.tab); got >= 4*capBefore {
		t.Errorf("page table capacity %d -> %d: grew by more than one reallocation", capBefore, got)
	}
}
