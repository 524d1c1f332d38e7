package core

import (
	"fmt"
	"reflect"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/telemetry"
)

// identityFixture is DefaultConfig with every pointer field populated, so
// the walk below reaches the fields behind them. Each call builds fresh
// pointees, so perturbing one fixture never leaks into another.
func identityFixture() Config {
	c := DefaultConfig()
	c.Chaos = &chaos.Schedule{Preset: chaos.PresetMonkey, Seed: 7, Events: []chaos.Event{
		{Kind: chaos.LatencyShift, At: 100, Duration: 50, Arg: 2},
	}}
	c.Telemetry = &telemetry.Options{RingCap: 1024}
	return c
}

// step locates one child of a value: a struct field, a pointee, or a slice
// element.
type step struct {
	field, index int
	deref        bool
}

func locate(v reflect.Value, path []step) reflect.Value {
	for _, s := range path {
		switch {
		case s.deref:
			v = v.Elem()
		case s.index >= 0:
			v = v.Index(s.index)
		default:
			v = v.Field(s.field)
		}
	}
	return v
}

// TestConfigIdentityCoversEveryField: Identity must change when any field
// outside Engine changes — every leaf reachable through structs, pointers
// and slices, plus pointer presence and slice length — and must not change
// when an Engine field does. A field of a kind the encoder cannot encode
// canonically (func, chan, map, interface) fails the walk outright.
func TestConfigIdentityCoversEveryField(t *testing.T) {
	want := identityFixture().Identity()
	leaves := 0
	check := func(name string, inEngine bool, path []step, perturb func(reflect.Value)) {
		t.Helper()
		c := identityFixture()
		perturb(locate(reflect.ValueOf(&c).Elem(), path))
		if changed := c.Identity() != want; changed == inEngine {
			t.Errorf("perturbing %s: identity changed=%v, want %v", name, changed, !inEngine)
		}
		leaves++
	}
	var walk func(name string, inEngine bool, path []step, v reflect.Value)
	walk = func(name string, inEngine bool, path []step, v reflect.Value) {
		path = path[:len(path):len(path)] // children append to private copies
		switch v.Kind() {
		case reflect.Bool:
			check(name, inEngine, path, func(v reflect.Value) { v.SetBool(!v.Bool()) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			check(name, inEngine, path, func(v reflect.Value) { v.SetInt(v.Int() + 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			check(name, inEngine, path, func(v reflect.Value) { v.SetUint(v.Uint() + 1) })
		case reflect.Float32, reflect.Float64:
			check(name, inEngine, path, func(v reflect.Value) { v.SetFloat(v.Float() + 1) })
		case reflect.String:
			check(name, inEngine, path, func(v reflect.Value) { v.SetString(v.String() + "x") })
		case reflect.Pointer:
			if v.IsNil() {
				check(name+" (presence)", inEngine, path, func(v reflect.Value) { v.Set(reflect.New(v.Type().Elem())) })
				return
			}
			check(name+" (presence)", inEngine, path, func(v reflect.Value) { v.SetZero() })
			walk(name, inEngine, append(path, step{deref: true}), v.Elem())
		case reflect.Slice:
			check(name+" (length)", inEngine, path, func(v reflect.Value) {
				v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			})
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", name, i), inEngine, append(path, step{index: i}), v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					continue
				}
				walk(name+"."+f.Name, inEngine || f.Type == reflect.TypeOf(Engine{}),
					append(path, step{field: i, index: -1}), v.Field(i))
			}
		default:
			t.Errorf("%s: kind %s has no canonical identity encoding", name, v.Kind())
		}
	}
	c := identityFixture()
	walk("Config", false, nil, reflect.ValueOf(&c).Elem())
	if leaves < 75 {
		t.Fatalf("walk checked only %d perturbations; the fixture no longer reaches every field", leaves)
	}

	// The ring capacity encodes as built: 0 selects DefaultRingCap, and
	// capacities round up to a power of two.
	for _, pair := range [][2]int{{0, telemetry.DefaultRingCap}, {1000, 1024}} {
		a, b := identityFixture(), identityFixture()
		a.Telemetry.RingCap, b.Telemetry.RingCap = pair[0], pair[1]
		if a.Identity() != b.Identity() {
			t.Errorf("RingCap %d and %d build the same rings but have different identities", pair[0], pair[1])
		}
	}
}
