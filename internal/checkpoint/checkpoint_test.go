package checkpoint

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// roundTripFields is one value of every primitive, including the edge
// values fixed-width encodings are most likely to mangle.
type roundTripFields struct {
	u0, uMax     uint64
	iMin, iMax   int64
	u32          uint32
	u8           uint8
	yes, no      bool
	n            int
	inf, negZero float64
	pi           float64
	blob, empty  []byte
	str, none    string
}

func (f *roundTripFields) walk(c *Codec) {
	c.Mark("head")
	c.U64(&f.u0)
	c.U64(&f.uMax)
	c.I64(&f.iMin)
	c.I64(&f.iMax)
	c.U32(&f.u32)
	c.U8(&f.u8)
	c.Bool(&f.yes)
	c.Bool(&f.no)
	c.Int(&f.n)
	c.F64(&f.inf)
	c.F64(&f.negZero)
	c.F64(&f.pi)
	c.Blob(&f.blob)
	c.Blob(&f.empty)
	c.Str(&f.str)
	c.Str(&f.none)
	c.Mark("tail")
}

// TestCodecRoundTrip drives every primitive through a save/load cycle of
// one walk.
func TestCodecRoundTrip(t *testing.T) {
	want := roundTripFields{
		uMax: ^uint64(0), iMin: math.MinInt64, iMax: math.MaxInt64,
		u32: 0xdeadbeef, u8: 0x7f, yes: true, n: -42,
		inf: math.Inf(-1), negZero: math.Copysign(0, -1), pi: 3.14159,
		blob: []byte{1, 2, 3}, str: "hello, checkpoint",
	}
	e := NewSaver()
	want.walk(e)

	var got roundTripFields
	d := NewLoader(e.Bytes())
	got.walk(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got.u0 != 0 || got.uMax != want.uMax || got.iMin != want.iMin || got.iMax != want.iMax {
		t.Errorf("64-bit integers = %d %d %d %d", got.u0, got.uMax, got.iMin, got.iMax)
	}
	if got.u32 != 0xdeadbeef || got.u8 != 0x7f || got.n != -42 {
		t.Errorf("U32/U8/Int = %#x %#x %d", got.u32, got.u8, got.n)
	}
	if !got.yes || got.no {
		t.Errorf("Bool round trip failed")
	}
	if !math.IsInf(got.inf, -1) || math.Float64bits(got.negZero) != math.Float64bits(want.negZero) || got.pi != 3.14159 {
		t.Errorf("F64 = %g %#x %g", got.inf, math.Float64bits(got.negZero), got.pi)
	}
	if len(got.blob) != 3 || got.blob[0] != 1 || got.blob[2] != 3 || len(got.empty) != 0 {
		t.Errorf("Blob = %v, %v", got.blob, got.empty)
	}
	if got.str != want.str || got.none != "" {
		t.Errorf("Str = %q, %q", got.str, got.none)
	}
}

// TestCodecCollections round-trips the sequence helpers and checks the
// structural guards: a fixed count or presence flag that disagrees with
// the loading machine is refused, and a map travels in key order.
func TestCodecCollections(t *testing.T) {
	type rec struct {
		kind uint8
		v    int64
	}
	walk := func(c *Codec, words []uint64, recs *[]rec, m *map[int]string, have bool) {
		c.Count(len(words), "words")
		Words(c, words)
		Slice(c, recs, func(c *Codec, r *rec) {
			Enum(c, &r.kind)
			c.I64(&r.v)
		})
		Map(c, m, func(c *Codec, k *int, v *string) {
			c.Int(k)
			c.Str(v)
		})
		c.Present(have, "a widget")
	}
	recs := []rec{{1, -5}, {2, 7}}
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	e := NewSaver()
	walk(e, []uint64{9, 8, 7}, &recs, &m, true)
	e2 := NewSaver()
	walk(e2, []uint64{9, 8, 7}, &recs, &map[int]string{1: "a", 2: "b", 3: "c"}, true)
	if string(e.Bytes()) != string(e2.Bytes()) {
		t.Fatal("equal maps serialized differently")
	}

	words := make([]uint64, 3)
	var gotRecs []rec
	var gotMap map[int]string
	d := NewLoader(e.Bytes())
	walk(d, words, &gotRecs, &gotMap, true)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if words[0] != 9 || words[2] != 7 || len(gotRecs) != 2 || gotRecs[1] != (rec{2, 7}) || len(gotMap) != 3 || gotMap[2] != "b" {
		t.Fatalf("round trip: words %v recs %v map %v", words, gotRecs, gotMap)
	}

	d = NewLoader(e.Bytes())
	walk(d, make([]uint64, 4), &gotRecs, &gotMap, true)
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("count mismatch: %v, want ErrCorrupt", d.Err())
	}
	d = NewLoader(e.Bytes())
	walk(d, make([]uint64, 3), &gotRecs, &gotMap, false)
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("presence mismatch: %v, want ErrCorrupt", d.Err())
	}
}

// TestDecoderStickyError verifies a load failure latches: later reads
// yield zero values and the original error survives to Finish.
func TestDecoderStickyError(t *testing.T) {
	e := NewSaver()
	e.Mark("a")
	seven := uint64(7)
	e.U64(&seven)
	d := NewLoader(e.Bytes())
	d.Mark("b") // wrong section
	if d.Err() == nil {
		t.Fatal("wrong section mark not detected")
	}
	first := d.Err()
	got := uint64(99)
	if d.U64(&got); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	if d.Err() != first {
		t.Errorf("sticky error replaced: %v", d.Err())
	}
	if !errors.Is(d.Finish(), ErrCorrupt) {
		t.Errorf("Finish = %v, want ErrCorrupt", d.Finish())
	}
}

// TestDecoderTruncation loads every strict prefix of a valid stream: each
// must end in an error (possibly at Finish), and none may panic.
func TestDecoderTruncation(t *testing.T) {
	walk := func(c *Codec, n *uint64, blob *[]byte, name *string, flag *bool) {
		c.Mark("sec")
		c.U64(n)
		c.Blob(blob)
		c.Str(name)
		c.Bool(flag)
	}
	n, blob, name, flag := uint64(123456789), []byte("payload bytes"), "name", true
	e := NewSaver()
	walk(e, &n, &blob, &name, &flag)
	full := e.Bytes()
	for k := 0; k < len(full); k++ {
		d := NewLoader(full[:k])
		walk(d, &n, &blob, &name, &flag)
		if d.Finish() == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", k, len(full))
		}
	}
}

// TestDecoderHostileLength verifies a length prefix larger than the stream
// is rejected before any allocation is attempted.
func TestDecoderHostileLength(t *testing.T) {
	var raw []byte
	raw = binary.LittleEndian.AppendUint32(raw, ^uint32(0)) // 4 GiB blob "length"
	d := NewLoader(raw)
	var b []byte
	if d.Blob(&b); b != nil {
		t.Errorf("hostile blob returned %d bytes", len(b))
	}
	if !errors.Is(d.Finish(), ErrCorrupt) {
		t.Errorf("hostile length: %v, want ErrCorrupt", d.Finish())
	}
}

func writeTestFile(t *testing.T, dir string) (path, meta string, payload []byte) {
	t.Helper()
	path = filepath.Join(dir, "state.ckpt")
	meta = "bench=mcf hw=8x8"
	payload = []byte("serialized machine state, long enough to flip bits in")
	if err := WriteFile(path, meta, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, meta, payload
}

// TestFileRoundTrip writes and reads one checkpoint file.
func TestFileRoundTrip(t *testing.T) {
	path, meta, payload := writeTestFile(t, t.TempDir())
	gotMeta, gotPayload, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %q, want %q", gotMeta, meta)
	}
	if string(gotPayload) != string(payload) {
		t.Errorf("payload = %q, want %q", gotPayload, payload)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after successful write")
	}
}

// TestFileTortureTruncation truncates the file at every possible length;
// every truncation must be rejected with a classified error.
func TestFileTortureTruncation(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeTestFile(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(trunc, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFile(trunc)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded silently", n, len(full))
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation to %d bytes: unclassified error %v", n, err)
		}
	}
}

// TestFileTortureBitFlips flips one bit in every byte of the file; every
// flip must be rejected, and flips in the version field must be reported as
// a version mismatch rather than corruption.
func TestFileTortureBitFlips(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeTestFile(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.ckpt")
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFile(flipped)
		if err == nil {
			t.Fatalf("bit flip at byte %d loaded silently", i)
		}
		switch {
		case i < len(Magic):
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("magic flip at byte %d: %v, want ErrBadMagic", i, err)
			}
		case i < len(Magic)+4:
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("version flip at byte %d: %v, want ErrVersion", i, err)
			}
		default:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at byte %d: %v, want ErrCorrupt", i, err)
			}
		}
	}
}

// TestFileWrongVersion rewrites the version field (fixing the checksum so
// only the version differs) and expects ErrVersion specifically.
func TestFileWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeTestFile(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(full[8:], Version+7)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFile(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("wrong version: %v, want ErrVersion", err)
	}
}

// TestFileKillMidWrite simulates a crash between the temp-file write and the
// rename: the stray .tmp (here: half-written) must not disturb reads of the
// previous checkpoint, and a subsequent WriteFile must replace both cleanly.
func TestFileKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	path, meta, payload := writeTestFile(t, dir)

	// A later writer died mid-write, leaving garbage under the temp name.
	if err := os.WriteFile(path+".tmp", []byte("half a checkpoi"), 0o644); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotPayload, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile with stray temp file: %v", err)
	}
	if gotMeta != meta || string(gotPayload) != string(payload) {
		t.Errorf("stray temp file disturbed the committed checkpoint")
	}

	// Reading the stray temp file itself reports garbage, not a panic.
	if _, _, err := ReadFile(path + ".tmp"); err == nil {
		t.Errorf("half-written temp file loaded silently")
	}

	// The next writer replaces both the stray temp file and the checkpoint.
	if err := WriteFile(path, "v2", []byte("second state")); err != nil {
		t.Fatalf("WriteFile over stray temp: %v", err)
	}
	gotMeta, gotPayload, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after recovery write: %v", err)
	}
	if gotMeta != "v2" || string(gotPayload) != "second state" {
		t.Errorf("recovery write not visible: meta %q payload %q", gotMeta, gotPayload)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file still present after recovery write")
	}
}
