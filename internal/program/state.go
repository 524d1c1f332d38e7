package program

import (
	"maps"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). Memory is the only mutable object
// in this package (Program images are pristine by contract), and it has one
// codec: a sparse diff against the program's immutable paged image. Both the
// full-machine checkpoint and the region-of-interest snapshots use it, so a
// blob scales with the written working set instead of the footprint.

// CheckpointDiff walks the memory as a sparse diff against base (the
// program's immutable paged image). The base's mapped-word count leads the
// section, so a diff cut from a different image is refused as corrupt
// rather than applied to data it was never cut from. Saving and loading
// split after that header (saveDiff, loadDiff): the save side compares page
// pointers, the load side reuses the pages this memory already owns, and
// one walk would need a branch at every step.
func (m *Memory) CheckpointDiff(c *checkpoint.Codec, base *Memory) {
	c.Mark("program.memdiff")
	mapped := base.mapped
	c.Int(&mapped)
	if c.Err() == nil && mapped != base.mapped {
		c.Failf("memory diff was cut from an image mapping %d words, this image maps %d",
			mapped, base.mapped)
	}
	if c.Loading() {
		m.loadDiff(c, base)
	} else {
		m.saveDiff(c, base)
	}
	c.Int(&m.mapped)
}

// saveDiff writes the pages that may differ from base. The memory is a
// clone of base and a Memory never unmaps a page, so every page of base is
// mapped here too and the diff needs no list of removed pages. Clones share base's pages until first
// write, so "page pointer differs from base's" is an O(1) exact test for
// "this page may have diverged". The encoding is deterministic: pages go
// out in ascending page-index order, and a restored memory holds privately
// exactly the pages its diff carried, so restoring and re-saving yields the
// same bytes.
func (m *Memory) saveDiff(c *checkpoint.Codec, base *Memory) {
	var diff []uint64
	m.forEachPage(func(idx uint64, pg *memPage) {
		if base.page(idx<<memPageShift) != pg {
			diff = append(diff, idx)
		}
	})
	c.Len(len(diff))
	for _, idx := range diff {
		pg := m.page(idx << memPageShift)
		c.U64(&idx)
		checkpoint.Words(c, pg.words[:])
		checkpoint.Words(c, pg.valid[:])
	}
}

// loadDiff makes the memory base-with-the-diff-applied, sharing every
// untouched page with base copy-on-write (exactly the shape a fresh
// NewMemory clone has after replaying the same stores). The diff's pages
// overwrite pages this memory already owns, whatever index they held:
// sampled runs restore a region-of-interest snapshot once per interval, and
// a fresh 4KB allocation per page per restore made garbage-collection churn
// the dominant restore cost. Owned pages are referenced only by this memory
// (clones share the image's pages, which nobody owns), so in-place reuse is
// invisible to every other Memory.
func (m *Memory) loadDiff(c *checkpoint.Codec, base *Memory) {
	nDiff := c.Len(0)
	if c.Err() != nil {
		return
	}
	// Reset to the base layout: shared page pointers, copy-on-write.
	if len(base.tab) > len(m.tab) {
		m.tab = make([]*memPage, len(base.tab))
	}
	clear(m.tab[copy(m.tab, base.tab):])
	m.high = maps.Clone(base.high)
	for i := 0; i < nDiff; i++ {
		var idx uint64
		c.U64(&idx)
		if i == len(m.owned) {
			m.owned = append(m.owned, &memPage{owner: m})
		}
		pg := m.owned[i]
		checkpoint.Words(c, pg.words[:])
		checkpoint.Words(c, pg.valid[:])
		if c.Err() != nil {
			return
		}
		m.setPage(idx, pg)
	}
	clear(m.owned[nDiff:])
	m.owned = m.owned[:nDiff]
}
