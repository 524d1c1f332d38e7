package checkpoint

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Codec is the one stream type every checkpointed structure walks. A type
// lists its checkpoint fields once, in a single walk: built by NewSaver the
// codec appends each field it is handed, built by NewLoader it reads each
// field into the place it is handed. Save and load therefore share one
// field list and cannot disagree on order or width. A walk branches on
// Loading only where the load side genuinely does more (rebuilding an index,
// validating a value against the machine).
//
// Integers are fixed-width little-endian, sequences are length-prefixed,
// and Mark writes a named section boundary that loading verifies — part of
// the format, and the first thing a corrupt or foreign stream trips over.
// Loading errors latch: the first failure sticks, every later read yields
// the zero value, and the caller checks Err or Finish once at the end. A
// truncated or hostile stream therefore degrades to zero values plus an
// error; it cannot panic or force a huge allocation (Len is bounded by the
// bytes remaining).
type Codec struct {
	buf     []byte // saving: the payload so far; loading: the whole payload
	off     int    // loading: the read position
	loading bool
	err     error
}

// NewSaver returns a codec that writes a fresh payload.
func NewSaver() *Codec { return &Codec{} }

// NewLoader returns a codec that reads data.
func NewLoader(data []byte) *Codec { return &Codec{buf: data, loading: true} }

// Loading reports whether the walk is reading a payload into the machine.
func (c *Codec) Loading() bool { return c.loading }

// Bytes returns the payload written so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first latched error (nil while the walk is healthy).
func (c *Codec) Err() error { return c.err }

// Fail latches err unless an earlier error is already latched.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf latches an ErrCorrupt describing what is wrong with the stream.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Finish reports the walk's outcome: the latched error if any, or, loading,
// an error if the walk did not consume the whole payload.
func (c *Codec) Finish() error {
	if c.err != nil {
		return c.err
	}
	if c.loading && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes after final section", ErrCorrupt, len(c.buf)-c.off)
	}
	return nil
}

// next returns the next n payload bytes while the walk is healthy and they
// are there, or nil. It is the fast path every read inlines.
func (c *Codec) next(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.buf)-c.off {
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// take is next that latches a truncation error when the bytes are missing.
func (c *Codec) take(n int) []byte {
	if c.err == nil && (n < 0 || n > len(c.buf)-c.off) {
		c.Failf("truncated stream at offset %d (want %d bytes, have %d)", c.off, n, len(c.buf)-c.off)
	}
	return c.next(n)
}

// Raw walks the next n bytes in place, for a walk that encodes a run of
// fixed-width records itself in one bounds check: saving extends the
// payload by n bytes and returns them for the walk to fill, every one of
// them; loading returns them from the payload without copying (the slice
// aliases the payload, so the walk parses or copies it before the payload
// is reused).
func (c *Codec) Raw(n int) []byte {
	if c.loading {
		return c.take(n)
	}
	start := len(c.buf)
	c.buf = slices.Grow(c.buf, n)[:start+n]
	return c.buf[start:]
}

// u64, u32 and u8 read the next fixed-width integer, or zero after
// latching an error. Keeping the load side behind one call each leaves
// every primitive small enough to inline, so saving is a bare append.
func (c *Codec) u64() uint64 {
	if b := c.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	c.take(8)
	return 0
}

func (c *Codec) u32() uint32 {
	if b := c.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	c.take(4)
	return 0
}

func (c *Codec) u8() uint8 {
	if b := c.next(1); b != nil {
		return b[0]
	}
	c.take(1)
	return 0
}

// U64 walks a fixed 8-byte unsigned integer.
func (c *Codec) U64(p *uint64) {
	if c.loading {
		*p = c.u64()
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
}

// I64 walks a fixed 8-byte signed integer.
func (c *Codec) I64(p *int64) {
	if c.loading {
		*p = int64(c.u64())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
}

// Int walks a platform int as a signed 8-byte integer.
func (c *Codec) Int(p *int) {
	if c.loading {
		*p = int(int64(c.u64()))
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
}

// F64 walks a float64 by its IEEE-754 bits (a bit-exact round trip).
func (c *Codec) F64(p *float64) {
	if c.loading {
		*p = math.Float64frombits(c.u64())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
}

// U32 walks a fixed 4-byte unsigned integer.
func (c *Codec) U32(p *uint32) {
	if c.loading {
		*p = c.u32()
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.loading {
		*p = c.u8()
		return
	}
	c.buf = append(c.buf, *p)
}

// Bool walks one byte holding 0 or 1; loading refuses any other byte.
func (c *Codec) Bool(p *bool) {
	if c.loading {
		*p = c.loadBool()
		return
	}
	var v uint8
	if *p {
		v = 1
	}
	c.buf = append(c.buf, v)
}

func (c *Codec) loadBool() bool {
	v := c.u8()
	if v > 1 {
		c.Failf("invalid boolean byte at offset %d", c.off-1)
	}
	return v == 1
}

// Len walks the element count of a following sequence: saving writes n and
// returns it, loading returns the stored count — bounded by the bytes
// remaining, since every element occupies at least one byte, so a larger
// count is provably corrupt and must not drive an allocation.
func (c *Codec) Len(n int) int {
	v := uint32(n)
	c.U32(&v)
	if !c.loading {
		return n
	}
	if c.err == nil && int(v) > len(c.buf)-c.off {
		c.Failf("sequence length %d exceeds %d remaining bytes at offset %d", v, len(c.buf)-c.off, c.off)
		return 0
	}
	return int(v)
}

// Count walks an element count the machine's configuration fixes: loading
// requires the stored count to equal n and otherwise latches an error
// naming what was counted. It reports whether the walk is still healthy.
func (c *Codec) Count(n int, what string) bool {
	if got := c.Len(n); c.err == nil && got != n {
		c.Failf("checkpoint has %d %s, this machine %d — different configuration", got, what, n)
	}
	return c.err == nil
}

// Present walks the presence flag of an optional subsystem: loading
// requires the stored flag to match have, the machine's own configuration.
// It reports whether the subsystem's walk follows.
func (c *Codec) Present(have bool, what string) bool {
	got := have
	c.Bool(&got)
	if c.err == nil && got != have {
		c.Failf("checkpoint %s %s but this machine %s it — different configuration",
			hasWord(got), what, hasWord(have))
	}
	return have && c.err == nil
}

func hasWord(b bool) string {
	if b {
		return "has"
	}
	return "lacks"
}

// Blob walks a length-prefixed byte slice (loading copies it out of the
// payload; an empty blob loads as nil).
func (c *Codec) Blob(p *[]byte) {
	n := c.Len(len(*p))
	if !c.loading {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = append([]byte(nil), c.take(n)...)
}

// Str walks a length-prefixed string.
func (c *Codec) Str(p *string) {
	n := c.Len(len(*p))
	if !c.loading {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.take(n))
}

// Mark walks a named section boundary: loading latches an error unless the
// stream holds tag here.
func (c *Codec) Mark(tag string) {
	got := tag
	c.Str(&got)
	if c.err == nil && got != tag {
		c.Failf("expected section %q, found %q", tag, got)
	}
}

// Enum walks a byte-sized enumeration (an opcode, a register, a kind tag)
// as one byte.
func Enum[T ~uint8](c *Codec, p *T) {
	if c.loading {
		*p = T(c.u8())
		return
	}
	c.buf = append(c.buf, uint8(*p))
}

// Words walks len(s) fixed 8-byte integers with no length prefix (the count
// is structural, or walked before); loading fills s in place. One bounds
// check covers the run, which keeps memory pages and code-cache words
// cheap to restore.
func Words[T ~uint64 | ~int64 | ~int](c *Codec, s []T) {
	if !c.loading {
		c.buf = slices.Grow(c.buf, 8*len(s))
		for _, v := range s {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(v))
		}
		return
	}
	b := c.take(8 * len(s))
	if b == nil {
		clear(s)
		return
	}
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Slice walks a length-prefixed sequence, each element through elem.
// Loading resizes *s to the stored count, reusing its capacity; every
// element starts zeroed, and an empty sequence keeps a nil slice nil.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := c.Len(len(*s))
	if c.loading {
		if cap(*s) >= n {
			*s = (*s)[:n]
			clear(*s)
		} else {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map walks a map as a length-prefixed sequence of entries in ascending key
// order, so identical maps serialize identically; entry walks one key and
// its value (and may derive the key from the value). Loading replaces *m
// with a map of the stored entries.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, entry func(c *Codec, k *K, v *V)) {
	if !c.loading {
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.Len(len(keys))
		for _, k := range keys {
			v := (*m)[k]
			entry(c, &k, &v)
		}
		return
	}
	n := c.Len(0)
	*m = make(map[K]V, n)
	for i := 0; i < n; i++ {
		var k K
		var v V
		entry(c, &k, &v)
		(*m)[k] = v
	}
}
