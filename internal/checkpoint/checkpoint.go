// Package checkpoint is the crash-safe state serialization layer (DESIGN
// §12). It has two halves:
//
// A two-way byte-level codec — Codec — that every checkpointed type walks
// once: the same walk writes the type's fields when saving and reads them
// back when loading, so each type states its checkpoint format in exactly
// one place. The codec is deliberately primitive: fixed-width little-endian
// integers, length-guarded sequences, and named section marks (part of the
// format, and the place a foreign or corrupt stream is first reported).
// Determinism matters more than size here (two identical machines must
// serialize to identical bytes, so checkpoint files can be compared
// directly), and the guards matter more than speed (a corrupt or truncated
// stream must fail with an error, never panic or over-allocate).
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
