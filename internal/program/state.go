package program

import (
	"fmt"
	"maps"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). Memory is the only mutable object
// in this package (Program images are pristine by contract), and it has one
// codec: a sparse diff against the program's immutable paged image. Both the
// full-machine checkpoint and the region-of-interest snapshots use it, so a
// blob scales with the written working set instead of the footprint.

// SaveStateDiff serializes the memory as a sparse diff against base (the
// program's immutable paged image). Clones share base's pages until first
// write, so "page pointer differs from base's" is an O(1) exact test for
// "this page may have diverged": only such pages are written, plus the
// indices of base pages this memory no longer maps. The encoding is
// deterministic: pages go out in ascending page-index order, and a restored
// memory holds privately exactly the pages its diff carried, so restoring
// and re-saving yields the same bytes. The base's mapped-word count leads
// the section, so a diff cannot silently apply to a different image.
func (m *Memory) SaveStateDiff(e *checkpoint.Encoder, base *Memory) {
	e.Mark("program.memdiff")
	e.Int(base.mapped)
	var diff []uint64
	m.forEachPage(func(idx uint64, pg *memPage) {
		if base.page(idx<<memPageShift) != pg {
			diff = append(diff, idx)
		}
	})
	e.Len(len(diff))
	for _, idx := range diff {
		pg := m.page(idx << memPageShift)
		e.U64(idx)
		for _, w := range pg.words {
			e.U64(w)
		}
		for _, v := range pg.valid {
			e.U64(v)
		}
	}
	var gone []uint64
	base.forEachPage(func(idx uint64, pg *memPage) {
		if m.page(idx<<memPageShift) == nil {
			gone = append(gone, idx)
		}
	})
	e.Len(len(gone))
	for _, idx := range gone {
		e.U64(idx)
	}
	e.Int(m.mapped)
}

// LoadStateDiff restores state saved by SaveStateDiff against the same base
// image: the memory becomes base-with-the-diff-applied, sharing every
// untouched page with base copy-on-write (exactly the shape a fresh
// NewMemory clone has after replaying the same stores). A diff cut from an
// image with a different mapped-word count is refused as corrupt. Pages this
// memory already owns are overwritten in place rather than reallocated:
// sampled runs restore a region-of-interest snapshot once per interval, and
// a fresh 4KB allocation per page per restore made garbage-collection churn
// the dominant restore cost. Owned pages are referenced only by this memory
// (clones share the image's pages, which stay owned by the image), so
// in-place reuse is invisible to every other Memory.
func (m *Memory) LoadStateDiff(d *checkpoint.Decoder, base *Memory) error {
	d.Expect("program.memdiff")
	baseMapped := d.Int()
	nDiff := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if baseMapped != base.mapped {
		return fmt.Errorf("%w: memory diff was cut from an image mapping %d words, this image maps %d",
			checkpoint.ErrCorrupt, baseMapped, base.mapped)
	}
	var own map[uint64]*memPage
	m.forEachPage(func(idx uint64, pg *memPage) {
		if pg.owner == m {
			if own == nil {
				own = make(map[uint64]*memPage)
			}
			own[idx] = pg
		}
	})
	// Reset to the base layout: shared page pointers, copy-on-write.
	if len(base.tab) > len(m.tab) {
		m.tab = make([]*memPage, len(base.tab))
	}
	clear(m.tab[copy(m.tab, base.tab):])
	m.high = maps.Clone(base.high)
	for i := 0; i < nDiff; i++ {
		idx := d.U64()
		pg := own[idx]
		if pg == nil {
			pg = &memPage{owner: m}
		}
		for j := range pg.words {
			pg.words[j] = d.U64()
		}
		for j := range pg.valid {
			pg.valid[j] = d.U64()
		}
		if d.Err() != nil {
			return d.Err()
		}
		m.setPage(idx, pg)
	}
	nGone := d.Len()
	for i := 0; i < nGone; i++ {
		idx := d.U64()
		if idx < uint64(len(m.tab)) {
			m.tab[idx] = nil
		} else if m.high != nil {
			delete(m.high, idx)
		}
	}
	m.mapped = d.Int()
	return d.Err()
}
