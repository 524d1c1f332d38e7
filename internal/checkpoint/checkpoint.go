// Package checkpoint is the crash-safe state serialization layer (DESIGN
// §12). It has two halves:
//
// A byte-level codec — Encoder/Decoder — that every simulator package uses
// to write its state as a flat, deterministic byte stream. The codec is
// deliberately primitive: fixed-width little-endian integers, length-guarded
// slices, and named section marks. Determinism matters more than size here
// (two identical machines must serialize to identical bytes, so checkpoint
// files can be compared directly), and the guards matter more than speed (a
// corrupt or truncated stream must fail with an error, never panic or
// over-allocate).
//
// A file layer — WriteFile/ReadFile — that wraps one payload in a versioned,
// CRC-checksummed container and writes it atomically: the bytes go to a
// temporary file that is fsynced and then renamed over the target, so a
// crash mid-write leaves either the previous checkpoint or a stray .tmp
// file, never a half-written checkpoint under the real name.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// File format (all integers little-endian):
//
//	magic   [8]byte  "TSPCKPT\n"
//	version uint32
//	crc     uint32   CRC-32 (IEEE) of every byte after this field
//	metaLen uint32
//	payLen  uint64
//	meta    [metaLen]byte
//	payload [payLen]byte
//
// The version is checked before the checksum so an old or future file is
// reported as a version mismatch, not as corruption.
const (
	// Magic identifies a checkpoint file.
	Magic = "TSPCKPT\n"
	// Version is the current file-format version.
	Version = 1

	headerLen = 8 + 4 + 4 + 4 + 8
)

// Sentinel errors for the three rejection classes. Callers match them with
// errors.Is; the wrapped messages carry the detail.
var (
	// ErrBadMagic: the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion: the file is a checkpoint but from a different format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt: the file is truncated or fails its checksum, or a decoded
	// stream is malformed.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
)

// WriteFile atomically writes one checkpoint: meta is a short identity
// string (validated by the reader before the payload is trusted), payload
// the serialized machine state. The bytes land in path+".tmp" first, are
// fsynced, and are renamed over path; the directory is fsynced best-effort
// so the rename itself is durable.
func WriteFile(path, meta string, payload []byte) error {
	buf := make([]byte, headerLen, headerLen+len(meta)+len(payload))
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], Version)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(meta)))
	binary.LittleEndian.PutUint64(buf[20:], uint64(len(payload)))
	buf = append(buf, meta...)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[16:]))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Make the rename durable. Failure here is not fatal: the data is
	// already safely under the final name on any orderly shutdown.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// ReadFile validates and loads one checkpoint, returning its meta string and
// payload. Rejections are classified: ErrBadMagic for foreign files,
// ErrVersion for format mismatches, ErrCorrupt for truncation or checksum
// failure. A corrupt or truncated file is never partially returned.
func ReadFile(path string) (meta string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return "", nil, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	if len(data) < headerLen {
		return "", nil, fmt.Errorf("%w: %s: truncated header (%d bytes)", ErrCorrupt, path, len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return "", nil, fmt.Errorf("%w: %s has version %d, this build reads version %d",
			ErrVersion, path, v, Version)
	}
	crc := binary.LittleEndian.Uint32(data[12:])
	if got := crc32.ChecksumIEEE(data[16:]); got != crc {
		return "", nil, fmt.Errorf("%w: %s: checksum mismatch (stored %08x, computed %08x)",
			ErrCorrupt, path, crc, got)
	}
	metaLen := uint64(binary.LittleEndian.Uint32(data[16:]))
	payLen := binary.LittleEndian.Uint64(data[20:])
	if uint64(headerLen)+metaLen+payLen != uint64(len(data)) {
		return "", nil, fmt.Errorf("%w: %s: length fields disagree with file size", ErrCorrupt, path)
	}
	meta = string(data[headerLen : headerLen+metaLen])
	payload = append([]byte(nil), data[headerLen+metaLen:]...)
	return meta, payload, nil
}

// Encoder builds a checkpoint payload. Integers are fixed-width
// little-endian; slices are length-prefixed; Mark writes a named section
// boundary the Decoder verifies with Expect, so a skew between a package's
// save and load code fails loudly at the section name instead of silently
// misreading fields.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 appends a fixed 8-byte unsigned integer.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a fixed 8-byte signed integer.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// U32 appends a fixed 4-byte unsigned integer.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends one byte holding 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Int appends a platform int as a signed 8-byte integer.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits (bit-exact round trip).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Len appends an element count for a following sequence.
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Len(len(b))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Mark appends a named section boundary.
func (e *Encoder) Mark(tag string) { e.Str(tag) }

// Decoder reads a payload written by Encoder. All errors are sticky: the
// first failure latches, every later read returns the zero value, and the
// caller checks Err once at the end. A truncated or hostile stream therefore
// degrades to zero values plus an error — it cannot panic or force a huge
// allocation (Len is bounded by the remaining input).
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps a payload for reading.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding error (nil while the stream is healthy).
func (d *Decoder) Err() error { return d.err }

// fail latches the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after latching a truncation error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.off {
		d.fail("truncated stream at offset %d (want %d bytes, have %d)",
			d.off, n, len(d.data)-d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a fixed 8-byte unsigned integer.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed 8-byte signed integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// U32 reads a fixed 4-byte unsigned integer.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean byte at offset %d", d.off-1)
		return false
	}
}

// Int reads a signed 8-byte integer as a platform int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads an element count, bounded by the bytes remaining in the stream
// (every element occupies at least one byte, so a larger count is provably
// corrupt and must not drive an allocation).
func (d *Decoder) Len() int {
	n := int(d.U32())
	if d.err == nil && n > len(d.data)-d.off {
		d.fail("sequence length %d exceeds %d remaining bytes at offset %d",
			n, len(d.data)-d.off, d.off)
		return 0
	}
	return n
}

// Raw returns the next n bytes without copying them: the slice aliases the
// payload, so callers parse or copy it before the payload is reused. It
// lets a package decode a run of fixed-width records in one bounds check.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Blob reads a length-prefixed byte slice (copied out of the stream).
func (d *Decoder) Blob() []byte {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	return string(d.take(d.Len()))
}

// Expect reads a section mark and latches an error unless it matches tag.
func (d *Decoder) Expect(tag string) {
	got := d.Str()
	if d.err == nil && got != tag {
		d.fail("expected section %q, found %q", tag, got)
	}
}

// Finish reports the stream's final state: the sticky error if any, or an
// error if decoded sections did not consume the whole payload.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes after final section", ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}
