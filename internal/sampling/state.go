package sampling

import (
	"fmt"
	"reflect"

	"tridentsp/internal/checkpoint"
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

// Checkpoint walks the scheduler: in startup shape it carries the master
// machine's own snapshot, in windowed shape S0 and the committed record.
// Loading rebuilds the master from the embedded snapshot.
func (s *Scheduler) Checkpoint(c *checkpoint.Codec) {
	c.Mark("sampling.scheduler")
	c.Bool(&s.windowed)
	c.Bool(&s.nextDetailed)
	c.Bool(&s.prevSigOK)
	for i := range s.prevSig {
		c.F64(&s.prevSig[i])
	}
	c.Int(&s.phaseExtras)
	c.Int(&s.specWaste)
	checkpoint.Slice(c, &s.intervals, func(c *checkpoint.Codec, iv *Interval) {
		c.U64(&iv.Start)
		c.U64(&iv.End)
		checkpoint.Slice(c, &iv.Vec, (*checkpoint.Codec).F64)
		c.U64(&iv.TierSlow)
		c.U64(&iv.TierBatch)
		c.U64(&iv.TierJIT)
		c.Bool(&iv.Phase)
	})
	if !s.windowed {
		var master []byte
		if !c.Loading() {
			blob, err := s.sys.SaveState()
			if err != nil {
				c.Fail(fmt.Errorf("sampling: snapshot master: %w", err))
			}
			master = blob
		}
		c.Blob(&master)
		if c.Loading() && c.Err() == nil {
			s.seed = master
			c.Fail(s.sys.RestoreState(master))
		}
		return
	}
	c.Blob(&s.s0Blob)
	c.U64(&s.frontier)
	c.U64(&s.lastEnd)
	c.Int(&s.nStartupIvs)
	walkLeaves(c, reflect.ValueOf(&s.lastRes).Elem())
	checkpoint.Slice(c, &s.chainEvents, func(c *checkpoint.Codec, ev *telemetry.Event) {
		walkLeaves(c, reflect.ValueOf(ev).Elem())
	})
	if !c.Loading() || c.Err() != nil {
		return
	}
	if err := s.sys.RestoreState(s.s0Blob); err != nil {
		c.Fail(fmt.Errorf("sampling: restore master from startup snapshot: %w", err))
		return
	}
	s.s0Res = s.sys.Results()
	s.p0 = s.sys.Progress()
	s.seed = s.s0Blob
	s.nextDetailed = false
}

// walkLeaves walks every leaf of a struct — including strings, ratios, and
// level fields, unlike the flatten vector — in declaration order: unsigned
// integers as U64, signed as I64, floats as F64. The windowed snapshot needs
// the last chain's full core.Results to rebuild levels and strings in the
// estimate, and carries the chain's telemetry events the same way; a field
// added to either is picked up automatically (and changes the stream
// layout, which the surrounding checkpoint CRC turns into a clean load
// error).
func walkLeaves(c *checkpoint.Codec, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkLeaves(c, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkLeaves(c, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := v.Uint()
		c.U64(&x)
		if c.Loading() {
			v.SetUint(x)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		c.I64(&x)
		if c.Loading() {
			v.SetInt(x)
		}
	case reflect.Float32, reflect.Float64:
		x := v.Float()
		c.F64(&x)
		if c.Loading() {
			v.SetFloat(x)
		}
	case reflect.String:
		x := v.String()
		c.Str(&x)
		if c.Loading() {
			v.SetString(x)
		}
	case reflect.Bool:
		x := v.Bool()
		c.Bool(&x)
		if c.Loading() {
			v.SetBool(x)
		}
	default:
		panic(fmt.Sprintf("sampling: unsupported checkpoint leaf kind %s", v.Kind()))
	}
}
