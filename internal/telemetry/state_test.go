package telemetry

import (
	"errors"
	"reflect"
	"testing"

	"tridentsp/internal/checkpoint"
)

// saveTracer serializes t the way a system checkpoint does.
func saveTracer(t *Tracer) []byte {
	e := checkpoint.NewSaver()
	t.Checkpoint(e)
	return e.Bytes()
}

// loadTracer restores blob into t the way a system restore does.
func loadTracer(t *Tracer, blob []byte) error {
	d := checkpoint.NewLoader(blob)
	t.Checkpoint(d)
	return d.Err()
}

// busyTracer builds a small-ring tracer with both rings overflowed and
// every registry instrument kind populated.
func busyTracer() *Tracer {
	tr := New(Options{RingCap: 8})
	for i := int64(0); i < 20; i++ {
		tr.Emit(KindDLTDelinquent, i, uint64(0x1000+i*8), 3, i, -i) // semantic ring
		tr.Emit(KindFastEnter, i, uint64(0x2000+i*8), 0, i, 0)      // engine ring
	}
	tr.Metrics().Counter("loads").Add(41)
	tr.Metrics().Gauge("distance").Set(2.5)
	h := tr.Metrics().Histogram("latency", 4, 16, 64)
	for _, v := range []int64{1, 5, 17, 100, 100} {
		h.Observe(v)
	}
	return tr
}

// TestStateRoundTrip: a restored tracer reproduces the original in every
// export — retained events of both rings, drop counts, the sequence
// counter, and the full registry.
func TestStateRoundTrip(t *testing.T) {
	orig := busyTracer()
	blob := saveTracer(orig)

	// The restored tracer must be built like the original: same ring
	// capacity, instruments re-created by the same wiring code.
	re := New(Options{RingCap: 8})
	reH := re.Metrics().Histogram("latency", 4, 16, 64)
	if err := loadTracer(re, blob); err != nil {
		t.Fatalf("LoadState: %v", err)
	}

	if !reflect.DeepEqual(re.AllEvents(), orig.AllEvents()) {
		t.Errorf("restored events differ:\n got %+v\nwant %+v", re.AllEvents(), orig.AllEvents())
	}
	if re.Emitted() != orig.Emitted() || re.Dropped() != orig.Dropped() || re.EngineDropped() != orig.EngineDropped() {
		t.Errorf("counters: emitted %d/%d dropped %d/%d engine-dropped %d/%d",
			re.Emitted(), orig.Emitted(), re.Dropped(), orig.Dropped(), re.EngineDropped(), orig.EngineDropped())
	}
	if !reflect.DeepEqual(re.Metrics().Counters(), orig.Metrics().Counters()) {
		t.Error("restored counters differ")
	}
	if !reflect.DeepEqual(re.Metrics().Gauges(), orig.Metrics().Gauges()) {
		t.Error("restored gauges differ")
	}
	if !reflect.DeepEqual(re.Metrics().Histograms(), orig.Metrics().Histograms()) {
		t.Errorf("restored histograms differ:\n got %+v\nwant %+v",
			re.Metrics().Histograms(), orig.Metrics().Histograms())
	}
	// Restoration must go through get-or-create so instrument pointers
	// handed out during wiring keep addressing the live values.
	if got := re.Metrics().Histogram("latency", 4, 16, 64); got != reH {
		t.Error("LoadState replaced the histogram instead of restoring in place")
	}

	// A second cycle from the restored tracer is byte-identical: the
	// canonical-form property system checkpoints rely on.
	if string(saveTracer(re)) != string(blob) {
		t.Error("save/load/save is not a fixed point")
	}
}

// TestStateRingCapacityMismatch: a checkpoint from an overflowed ring
// cannot load into a tracer with a different capacity — the retained
// count no longer matches and the decoder must say corrupt, not wedge.
func TestStateRingCapacityMismatch(t *testing.T) {
	blob := saveTracer(busyTracer())
	re := New(Options{RingCap: 32})
	if err := loadTracer(re, blob); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("LoadState with mismatched ring capacity: %v, want ErrCorrupt", err)
	}
}

// TestStateInstrumentTypeMismatch: a checkpointed counter whose name the
// live registry holds as a gauge is a corrupt file, not a panic.
func TestStateInstrumentTypeMismatch(t *testing.T) {
	blob := saveTracer(busyTracer())
	re := New(Options{RingCap: 8})
	re.Metrics().Gauge("loads")
	if err := loadTracer(re, blob); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("LoadState with instrument type clash: %v, want ErrCorrupt", err)
	}
}

// TestStateTruncation: every prefix of a valid checkpoint fails loudly.
func TestStateTruncation(t *testing.T) {
	blob := saveTracer(busyTracer())
	for cut := 0; cut < len(blob); cut += 7 {
		re := New(Options{RingCap: 8})
		if err := loadTracer(re, blob[:cut]); err == nil {
			t.Fatalf("LoadState accepted a %d-byte prefix of %d", cut, len(blob))
		}
	}
}
