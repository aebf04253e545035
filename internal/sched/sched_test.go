package sched

import (
	"bytes"
	"slices"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/units"
)

func TestNewSlotsValidation(t *testing.T) {
	if _, err := NewSlots(0, 1); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := NewSlots(1, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewSlots(4, 2); err != nil {
		t.Errorf("valid slots rejected: %v", err)
	}
}

func TestSlotsTakePutFree(t *testing.T) {
	s, _ := NewSlots(2, 2)
	if !s.Take(0) || !s.Take(0) {
		t.Fatal("takes within budget failed")
	}
	if s.Take(0) {
		t.Fatal("take beyond budget succeeded")
	}
	if s.Used(0) != 2 || s.Free(0) != 0 {
		t.Fatalf("used/free = %d/%d", s.Used(0), s.Free(0))
	}
	if s.Used(1) != 0 || s.Free(1) != 2 {
		t.Fatal("disk 1 affected by disk 0")
	}
	s.Put(0)
	if s.Free(0) != 1 {
		t.Fatal("Put did not free")
	}
	if !s.Take(0) {
		t.Fatal("take after put failed")
	}
	s.Reset()
	if s.Used(0) != 0 || s.Used(1) != 0 {
		t.Fatal("Reset incomplete")
	}
	if s.Free(0) != 2 || s.Free(1) != 2 {
		t.Fatal("Reset did not restore the per-disk budget")
	}
}

// mustPanic asserts fn panics — Slots misuse (an out-of-range disk or an
// unmatched Put) is a scheduling bug and must be loud, not a silent
// zero-value that lets a broken schedule limp on.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestSlotsMisuseIsLoud(t *testing.T) {
	s, _ := NewSlots(2, 1)
	mustPanic(t, "Take(-1)", func() { s.Take(-1) })
	mustPanic(t, "Take(2)", func() { s.Take(2) })
	mustPanic(t, "Used(-1)", func() { s.Used(-1) })
	mustPanic(t, "Free(99)", func() { s.Free(99) })
	mustPanic(t, "Put(-1)", func() { s.Put(-1) })
	mustPanic(t, "Put(5)", func() { s.Put(5) })
	mustPanic(t, "unmatched Put(0)", func() { s.Put(0) })
	// Valid use still works after the panics above.
	if !s.Take(0) || s.Used(0) != 1 {
		t.Error("valid Take broken")
	}
	s.Put(0)
	if s.Used(0) != 0 {
		t.Error("valid Put broken")
	}
	if s.Disks() != 2 {
		t.Errorf("Disks = %d, want 2", s.Disks())
	}
}

func TestStreamLifecycle(t *testing.T) {
	l, err := layout.New(10, 5, 100, layout.DedicatedParity)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := l.AddObject("x", 10, 0, units.MPEG1)
	if err != nil {
		t.Fatal(err)
	}
	st := &Stream{ID: 1, Obj: obj}
	if st.Remaining() != 10 {
		t.Fatalf("Remaining = %d", st.Remaining())
	}
	st.Advance(4)
	if st.Remaining() != 6 || st.Done {
		t.Fatalf("after 4: remaining=%d done=%v", st.Remaining(), st.Done)
	}
	st.Advance(7) // overshoot clamps
	if !st.Done || st.NextDeliver != 10 || st.Remaining() != 0 {
		t.Fatalf("after overshoot: %+v", st)
	}
	term := &Stream{ID: 2, Obj: obj, Terminated: true}
	if term.Remaining() != 0 {
		t.Fatal("terminated stream has remaining tracks")
	}
}

func TestCycleReportResetKeepsBackingSlices(t *testing.T) {
	rep := &CycleReport{
		Cycle:           3,
		Delivered:       []Delivery{{StreamID: 1, Data: []byte{1, 2}}},
		Hiccups:         []Hiccup{{StreamID: 2}},
		Erasures:        []Erasure{{StreamID: 2}},
		Finished:        []int{1},
		Terminated:      []int{2},
		DataReads:       5,
		ParityReads:     1,
		Reconstructions: 1,
		BufferInUse:     9,
	}
	d0 := cap(rep.Delivered)
	rep.Reset(4)
	if rep.Cycle != 4 || len(rep.Delivered) != 0 || len(rep.Hiccups) != 0 || len(rep.Erasures) != 0 ||
		len(rep.Finished) != 0 || len(rep.Terminated) != 0 ||
		rep.DataReads != 0 || rep.ParityReads != 0 || rep.Reconstructions != 0 || rep.BufferInUse != 0 {
		t.Fatalf("Reset left state behind: %+v", rep)
	}
	if cap(rep.Delivered) != d0 {
		t.Fatal("Reset dropped the Delivered backing slice")
	}
}

func TestCycleReportCloneIsDeep(t *testing.T) {
	data := []byte{1, 2, 3}
	rep := &CycleReport{
		Cycle:     7,
		Delivered: []Delivery{{StreamID: 1, Data: data}},
		Hiccups:   []Hiccup{{StreamID: 2, Reason: "x"}},
		Erasures:  []Erasure{{StreamID: 2, Group: 3}},
		Finished:  []int{1},
	}
	cl := rep.Clone()
	if cl.Cycle != 7 || len(cl.Delivered) != 1 || cl.Delivered[0].StreamID != 1 ||
		!bytes.Equal(cl.Delivered[0].Data, data) || !slices.Equal(cl.Hiccups, rep.Hiccups) ||
		!slices.Equal(cl.Erasures, rep.Erasures) || !slices.Equal(cl.Finished, rep.Finished) {
		t.Fatal("Clone differs from the report it copies")
	}
	data[0] = 99 // mutate the original's backing bytes
	rep.Delivered[0].StreamID = 50
	rep.Erasures[0].Group = 50
	rep.Finished[0] = 50
	if cl.Delivered[0].Data[0] != 1 {
		t.Fatal("Clone shares Delivery.Data bytes")
	}
	if cl.Delivered[0].StreamID != 1 || cl.Erasures[0].Group != 3 || cl.Finished[0] != 1 {
		t.Fatal("Clone shares list backing arrays")
	}
}
