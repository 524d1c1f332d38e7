package main

import "testing"

// TestSelfTime pins span self time: a span's duration minus the union of
// the intervals its direct children cover (grandchildren are charged to
// their own parent, not the root).
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "core.System.Run", Parent: -1, Start: 0, End: 100},
		{Name: "memsys.Load", Parent: 0, Start: 10, End: 30},
		{Name: "memsys.Load", Parent: 0, Start: 20, End: 40}, // overlaps its sibling
		{Name: "dlt.Update", Parent: 0, Start: 50, End: 60},
		{Name: "dlt.Warm", Parent: 3, Start: 52, End: 55},
	}
	want := []int64{100 - 30 - 10, 20, 20, 10 - 3, 3}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["core"] != 60 || layers["memsys"] != 40 || layers["dlt"] != 10 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("core.NewSystem")
	tr.newRun()
	inner := tr.begin("program.ClonePristine")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: outer %d inner %d", tr.spans[outer].Parent, tr.spans[inner].Parent)
	}
	if tr.spans[inner].Run != tr.spans[outer].Run+1 {
		t.Errorf("run ids: outer %d inner %d", tr.spans[outer].Run, tr.spans[inner].Run)
	}
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	off.end(-1)
	off.newRun()
}
