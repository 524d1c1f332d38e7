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
	want := checkpoint.NewEncoder()
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
			want.U64(w.tag)
			want.Bool(true)
			want.Bool(w.prefetched)
		}
	}
	got := checkpoint.NewEncoder()
	saveCache(got, cacheFixture())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("saveCache bytes:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}

	// And they decode back into the same flat array.
	c := newCache(CacheConfig{SizeBytes: 8 * 64, Assoc: 2, Latency: 1}, 64)
	if err := loadCache(checkpoint.NewDecoder(got.Bytes()), c); err != nil {
		t.Fatal(err)
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
			e := checkpoint.NewEncoder()
			e.Len(2)
			e.Len(0)
			e.Len(2)
			e.U64(3)
			e.Bool(true)
			e.Bool(false)
			e.U64(tc.tag)
			e.Bool(tc.valid)
			e.Bool(false)
			c := newCache(CacheConfig{SizeBytes: 4 * 64, Assoc: 2, Latency: 1}, 64)
			err := loadCache(checkpoint.NewDecoder(e.Bytes()), c)
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadCache = %v, want ErrCorrupt naming %q", err, tc.want)
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
			e := checkpoint.NewEncoder()
			e.Len(2)
			e.Len(0)
			e.Len(2)
			e.U64(3)
			e.Bool(true)
			e.Bool(false)
			e.U64(4)
			e.U8(tc.valid)
			e.U8(tc.prefetched)
			blob := e.Bytes()
			if tc.truncate {
				blob = blob[:len(blob)-1]
			}
			c := newCache(CacheConfig{SizeBytes: 4 * 64, Assoc: 2, Latency: 1}, 64)
			err := loadCache(checkpoint.NewDecoder(blob), c)
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadCache = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}
