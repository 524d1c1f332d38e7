package dlt

import (
	"fmt"

	"tridentsp/internal/checkpoint"
)

// Checkpoint serialization (DESIGN §12). Beyond the entries themselves, the
// effective associativity must travel: a chaos DLTSqueeze narrows
// cfg.Assoc at runtime (SetAssocLimit), and a restored table must keep
// evicting at the squeezed width until the squeeze's revert edge fires.

// SaveState serializes the table.
func (t *Table) SaveState(e *checkpoint.Encoder) {
	e.Mark("dlt")
	e.Int(t.cfg.Assoc)
	e.Len(len(t.sets))
	for _, set := range t.sets {
		e.Len(len(set))
		for _, en := range set {
			e.U64(en.PC)
			e.U32(en.Access)
			e.U32(en.Miss)
			e.I64(en.MissLatency)
			e.U64(en.LastAddr)
			e.I64(en.Stride)
			e.U8(en.Confidence)
			e.Bool(en.seenAddr)
			e.Bool(en.Mature)
			e.Bool(en.frozen)
			e.Bool(en.valid)
		}
	}
	e.U64(t.Events)
	e.U64(t.Evictions)
}

// LoadState restores state saved by SaveState.
func (t *Table) LoadState(d *checkpoint.Decoder) error {
	d.Expect("dlt")
	assoc := d.Int()
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if built := cap(t.sets[0]); assoc < 1 || assoc > built {
		return fmt.Errorf("%w: DLT associativity %d, built with %d ways",
			checkpoint.ErrCorrupt, assoc, built)
	}
	t.cfg.Assoc = assoc
	if n != len(t.sets) {
		return fmt.Errorf("%w: DLT has %d sets, checkpoint %d", checkpoint.ErrCorrupt, len(t.sets), n)
	}
	for i := range t.sets {
		k := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		if k > assoc {
			return fmt.Errorf("%w: DLT set %d holds %d entries, associativity %d",
				checkpoint.ErrCorrupt, i, k, assoc)
		}
		set := t.sets[i][:0]
		for j := 0; j < k; j++ {
			set = append(set, Entry{
				PC:          d.U64(),
				Access:      d.U32(),
				Miss:        d.U32(),
				MissLatency: d.I64(),
				LastAddr:    d.U64(),
				Stride:      d.I64(),
				Confidence:  d.U8(),
				seenAddr:    d.Bool(),
				Mature:      d.Bool(),
				frozen:      d.Bool(),
				valid:       d.Bool(),
			})
		}
		t.sets[i] = set
	}
	t.Events = d.U64()
	t.Evictions = d.U64()
	return d.Err()
}
