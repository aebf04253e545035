package buffer

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPoolBasics(t *testing.T) {
	p := NewPool()
	p.Acquire(7)
	if p.InUse() != 7 {
		t.Fatalf("in use = %d, want 7", p.InUse())
	}
	if err := p.Release(5); err != nil {
		t.Fatal(err)
	}
	p.Acquire(4)
	if p.InUse() != 6 || p.Peak() != 7 {
		t.Fatalf("in use %d, peak %d, want 6 and 7", p.InUse(), p.Peak())
	}
}

func TestPoolErrors(t *testing.T) {
	p := NewPool()
	if err := p.Release(-1); err == nil {
		t.Error("negative release accepted")
	}
	if err := p.Release(1); err == nil {
		t.Error("release below zero accepted")
	}
}

func TestUnboundedPool(t *testing.T) {
	p := NewPool()
	p.Acquire(1_000_000)
	if p.Peak() != 1_000_000 {
		t.Fatalf("peak = %d", p.Peak())
	}
}

// Property: peak is monotone non-decreasing and >= in-use at all times.
func TestPoolPeakProperty(t *testing.T) {
	f := func(ops []int8) bool {
		p := NewPool()
		peakSeen := 0
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				p.Acquire(n)
			} else {
				_ = p.Release(-n)
			}
			if p.InUse() > peakSeen {
				peakSeen = p.InUse()
			}
			if p.Peak() < p.InUse() {
				return false
			}
		}
		return p.Peak() == peakSeen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServers(t *testing.T) {
	s, err := NewServers(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 || s.Free() != 2 || s.InUse() != 0 {
		t.Fatal("fresh server pool state")
	}
	if err := s.Attach(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(4); err != nil {
		t.Fatalf("re-attach should be a no-op: %v", err)
	}
	if s.InUse() != 1 {
		t.Fatalf("InUse = %d after idempotent attach", s.InUse())
	}
	if err := s.Attach(9); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third attach: %v", err)
	}
	got := s.Attached()
	if len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("Attached = %v", got)
	}
	if err := s.Detach(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach(4); err == nil {
		t.Error("double detach accepted")
	}
	if err := s.Attach(1); err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
}

func TestServersErrors(t *testing.T) {
	if _, err := NewServers(-1); err == nil {
		t.Error("negative K accepted")
	}
	s, _ := NewServers(0)
	if err := s.Attach(0); !errors.Is(err, ErrExhausted) {
		t.Errorf("attach with K=0: %v", err)
	}
}
