package sampling

import (
	"fmt"
	"reflect"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/telemetry"
)

// Scheduler checkpoint/restore. Snapshots are taken only at commit points —
// after a startup window (the master is quiesced at a window edge) or after
// a completed chain (the reconciler's state is the whole truth; the
// producer fast-forwards a machine of its own, which is never serialized).
// The snapshot has two shapes accordingly:
//
//   - startup (windowed=false): schedule state plus a full master machine
//     snapshot. Restore rebuilds the master and resumes the prefix; the
//     producer starts from the same snapshot on its own machine.
//   - windowed (windowed=true): schedule state plus the startup snapshot S0
//     and the committed record (intervals, last chain Results, telemetry).
//     Restore seeds the master from S0; the producer, seeded from the same
//     bytes, re-fast-forwards from there to the frontier slot (cheap when
//     the region-of-interest cache is on disk), and the reconciler replays
//     the remaining schedule bit-identically — including the same
//     speculation waste, since the launch window is a pure function of
//     (frontier, jobs).
//
// ROI hit/miss counters are per-process and deliberately not carried.

// SaveState serializes the scheduler (and, in startup shape, the master).
func (s *Scheduler) SaveState(e *checkpoint.Encoder) error {
	e.Mark("sampling.scheduler")
	e.Bool(s.windowed)
	e.Bool(s.nextDetailed)
	e.Bool(s.prevSigOK)
	for _, v := range s.prevSig {
		e.F64(v)
	}
	e.Int(s.phaseExtras)
	e.Int(s.specWaste)
	encodeIntervals(e, s.intervals)
	if !s.windowed {
		blob, err := s.sys.SaveState()
		if err != nil {
			return fmt.Errorf("sampling: snapshot master: %w", err)
		}
		e.Blob(blob)
		return nil
	}
	e.Blob(s.s0Blob)
	e.U64(s.frontier)
	e.U64(s.lastEnd)
	e.Int(s.nStartupIvs)
	encodeResults(e, &s.lastRes)
	encodeEvents(e, s.chainEvents)
	return nil
}

// LoadState restores what SaveState wrote, rebuilding the master machine
// from the embedded snapshot (full state in startup shape, S0 in windowed
// shape).
func (s *Scheduler) LoadState(d *checkpoint.Decoder) error {
	d.Expect("sampling.scheduler")
	s.windowed = d.Bool()
	s.nextDetailed = d.Bool()
	s.prevSigOK = d.Bool()
	for i := range s.prevSig {
		s.prevSig[i] = d.F64()
	}
	s.phaseExtras = d.Int()
	s.specWaste = d.Int()
	var err error
	if s.intervals, err = decodeIntervals(d); err != nil {
		return err
	}
	if !s.windowed {
		blob := d.Blob()
		if err := d.Err(); err != nil {
			return err
		}
		s.seed = blob
		return s.sys.RestoreState(blob)
	}
	s.s0Blob = d.Blob()
	s.frontier = d.U64()
	s.lastEnd = d.U64()
	s.nStartupIvs = d.Int()
	if err := decodeResults(d, &s.lastRes); err != nil {
		return err
	}
	if s.chainEvents, err = decodeEvents(d); err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.sys.RestoreState(s.s0Blob); err != nil {
		return fmt.Errorf("sampling: restore master from startup snapshot: %w", err)
	}
	s.s0Res = s.sys.Results()
	s.p0 = s.sys.Progress()
	s.seed = s.s0Blob
	s.nextDetailed = false
	return nil
}

func encodeIntervals(e *checkpoint.Encoder, intervals []Interval) {
	e.Len(len(intervals))
	for i := range intervals {
		iv := &intervals[i]
		e.U64(iv.Start)
		e.U64(iv.End)
		e.Len(len(iv.Vec))
		for _, v := range iv.Vec {
			e.F64(v)
		}
		e.U64(iv.TierSlow)
		e.U64(iv.TierBatch)
		e.U64(iv.TierJIT)
		e.Bool(iv.Phase)
	}
}

func decodeIntervals(d *checkpoint.Decoder) ([]Interval, error) {
	n := d.Len()
	if err := d.Err(); err != nil {
		return nil, err
	}
	intervals := make([]Interval, n)
	for i := range intervals {
		iv := &intervals[i]
		iv.Start = d.U64()
		iv.End = d.U64()
		m := d.Len()
		if err := d.Err(); err != nil {
			return nil, err
		}
		iv.Vec = make([]float64, m)
		for j := range iv.Vec {
			iv.Vec[j] = d.F64()
		}
		iv.TierSlow = d.U64()
		iv.TierBatch = d.U64()
		iv.TierJIT = d.U64()
		iv.Phase = d.Bool()
	}
	return intervals, d.Err()
}

func encodeEvents(e *checkpoint.Encoder, evs []telemetry.Event) {
	e.Len(len(evs))
	for i := range evs {
		ev := &evs[i]
		e.U64(ev.Seq)
		e.I64(ev.Cycle)
		e.U64(uint64(ev.Kind))
		e.U64(ev.PC)
		e.U64(ev.Aux)
		e.I64(ev.Arg)
		e.I64(ev.Arg2)
	}
}

func decodeEvents(d *checkpoint.Decoder) ([]telemetry.Event, error) {
	n := d.Len()
	if err := d.Err(); err != nil {
		return nil, err
	}
	evs := make([]telemetry.Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Seq = d.U64()
		ev.Cycle = d.I64()
		ev.Kind = telemetry.Kind(d.U64())
		ev.PC = d.U64()
		ev.Aux = d.U64()
		ev.Arg = d.I64()
		ev.Arg2 = d.I64()
	}
	return evs, d.Err()
}

// encodeResults serializes every leaf of core.Results — including strings,
// ratios, and level fields, unlike the flatten vector — by reflective walk
// in declaration order. The windowed snapshot needs the last chain's full
// Results to rebuild levels and strings in the estimate; a field added to
// Results is picked up automatically (and changes the stream layout, which
// the surrounding checkpoint CRC turns into a clean load error).
func encodeResults(e *checkpoint.Encoder, r *core.Results) {
	encodeLeaves(e, reflect.ValueOf(r).Elem())
}

func decodeResults(d *checkpoint.Decoder, r *core.Results) error {
	decodeLeaves(d, reflect.ValueOf(r).Elem())
	return d.Err()
}

func encodeLeaves(e *checkpoint.Encoder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			encodeLeaves(e, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			encodeLeaves(e, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.U64(v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.I64(v.Int())
	case reflect.Float32, reflect.Float64:
		e.F64(v.Float())
	case reflect.String:
		e.Str(v.String())
	case reflect.Bool:
		e.Bool(v.Bool())
	default:
		panic(fmt.Sprintf("sampling: unsupported Results leaf kind %s", v.Kind()))
	}
}

func decodeLeaves(d *checkpoint.Decoder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			decodeLeaves(d, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			decodeLeaves(d, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.U64())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(d.I64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(d.F64())
	case reflect.String:
		v.SetString(d.Str())
	case reflect.Bool:
		v.SetBool(d.Bool())
	default:
		panic(fmt.Sprintf("sampling: unsupported Results leaf kind %s", v.Kind()))
	}
}
