package memsys

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"tridentsp/internal/checkpoint"
)

// cacheFixture is a 4-set, 2-way cache holding, in recency order: set 0
// {8 prefetched, 4}, set 1 empty, set 2 {2}, set 3 {7 prefetched}.
func cacheFixture() *cache {
	c := newCache(CacheConfig{SizeBytes: 8 * 64, Assoc: 2, Latency: 1}, 64)
	c.insert(4, false)
	c.insert(8, true)
	c.insert(2, false)
	c.insert(7, true)
	return c
}

// TestSaveCacheLayout pins a cache level's checkpoint bytes to the explicit
// layout the format has always had: per set a Len, then per way in recency
// order a U64 tag, Bool true, Bool prefetched. Packing the ways in memory
// must not change a byte of it.
func TestSaveCacheLayout(t *testing.T) {
	want := checkpoint.NewSaver()
	want.Len(4)
	for _, set := range [][]struct {
		tag        uint64
		prefetched bool
	}{
		{{8, true}, {4, false}},
		{},
		{{2, false}},
		{{7, true}},
	} {
		want.Len(len(set))
		for _, w := range set {
			valid := true
			want.U64(&w.tag)
			want.Bool(&valid)
			want.Bool(&w.prefetched)
		}
	}
	got := checkpoint.NewSaver()
	checkpointCache(got, cacheFixture())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("checkpointCache bytes:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}

	// And they decode back into the same flat array.
	c := newCache(CacheConfig{SizeBytes: 8 * 64, Assoc: 2, Latency: 1}, 64)
	d := checkpoint.NewLoader(got.Bytes())
	if checkpointCache(d, c); d.Err() != nil {
		t.Fatal(d.Err())
	}
	ref := cacheFixture()
	for si := range ref.count {
		if !slices.Equal(c.set(uint64(si)), ref.set(uint64(si))) {
			t.Errorf("set %d restored as %x, want %x", si, c.set(uint64(si)), ref.set(uint64(si)))
		}
	}
}

// TestLoadCacheRejectsUnpackableWays: a stored way marked invalid, or with a
// tag too wide to pack, fails the restore naming its set and way instead of
// restoring as a dead slot that occupies a way.
func TestLoadCacheRejectsUnpackableWays(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tag   uint64
		valid bool
		want  string
	}{
		{"invalid way", 5, false, "set 1 way 1 is marked invalid"},
		{"wide tag", 1 << 63, true, "set 1 way 1 holds tag 0x8000000000000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := checkpoint.NewSaver()
			e.Len(2)
			e.Len(0)
			e.Len(2)
			tag, yes, no := uint64(3), true, false
			e.U64(&tag)
			e.Bool(&yes)
			e.Bool(&no)
			e.U64(&tc.tag)
			e.Bool(&tc.valid)
			e.Bool(&no)
			c := newCache(CacheConfig{SizeBytes: 4 * 64, Assoc: 2, Latency: 1}, 64)
			d := checkpoint.NewLoader(e.Bytes())
			checkpointCache(d, c)
			err := d.Err()
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkpointCache = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}

// TestLoadCacheRejectsBadFlagBytes: the valid and prefetched flags are
// booleans on the wire; any other byte, and a set cut short, fails the
// restore as corrupt.
func TestLoadCacheRejectsBadFlagBytes(t *testing.T) {
	for _, tc := range []struct {
		name              string
		valid, prefetched uint8
		truncate          bool
		want              string
	}{
		{"valid flag 2", 2, 0, false, "set 1 way 1: invalid boolean byte"},
		{"prefetched flag 255", 1, 255, false, "set 1 way 1: invalid boolean byte"},
		{"truncated set", 1, 0, true, "truncated stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := checkpoint.NewSaver()
			e.Len(2)
			e.Len(0)
			e.Len(2)
			tag, next, yes, no := uint64(3), uint64(4), true, false
			e.U64(&tag)
			e.Bool(&yes)
			e.Bool(&no)
			e.U64(&next)
			e.U8(&tc.valid)
			e.U8(&tc.prefetched)
			blob := e.Bytes()
			if tc.truncate {
				blob = blob[:len(blob)-1]
			}
			c := newCache(CacheConfig{SizeBytes: 4 * 64, Assoc: 2, Latency: 1}, 64)
			d := checkpoint.NewLoader(blob)
			checkpointCache(d, c)
			err := d.Err()
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkpointCache = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}

// TestHierarchyCheckpointRejectsVictimCursor: the victim ring's cursor
// indexes the ring on the next eviction, so a restored cursor outside the
// ring is refused as corrupt instead of panicking there.
func TestHierarchyCheckpointRejectsVictimCursor(t *testing.T) {
	for _, next := range []int{0, -1, len(New(DefaultConfig()).victims.ring)} {
		h := New(DefaultConfig())
		h.victims.next = next
		e := checkpoint.NewSaver()
		h.Checkpoint(e)
		d := checkpoint.NewLoader(e.Bytes())
		New(DefaultConfig()).Checkpoint(d)
		err := d.Finish()
		if next == 0 && err != nil {
			t.Fatalf("valid hierarchy refused: %v", err)
		}
		if next != 0 && !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("victim cursor %d: restore = %v, want ErrCorrupt", next, err)
		}
	}
}
