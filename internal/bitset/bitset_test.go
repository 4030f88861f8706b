package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.Count() != 0 {
		t.Fatalf("empty set misbehaves: len=%d count=%d", s.Len(), s.Count())
	}
}

func TestSetAndTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Set(-1)
	s.Set(10)
	s.Set(100)
	if s.Count() != 0 {
		t.Fatal("out-of-range Set mutated the set")
	}
	if s.Test(-1) || s.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestOnesAndString(t *testing.T) {
	s := New(100)
	s.Set(2)
	s.Set(64)
	s.Set(99)
	ones := s.Ones()
	want := []int{2, 64, 99}
	if len(ones) != len(want) {
		t.Fatalf("Ones = %v, want %v", ones, want)
	}
	for i := range want {
		if ones[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", ones, want)
		}
	}
	if got := s.String(); got != "{2, 64, 99}" {
		t.Fatalf("String = %q", got)
	}
}

func TestReset(t *testing.T) {
	s := New(128)
	for i := 0; i < 128; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
	if s.Len() != 128 {
		t.Fatal("Reset changed capacity")
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesDistinctSets(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		distinct := make(map[uint16]struct{})
		for _, i := range idx {
			s.Set(int(i))
			distinct[i] = struct{}{}
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Ones round-trips through Set.
func TestQuickOnesRoundTrip(t *testing.T) {
	f := func(idx []uint8) bool {
		s := New(256)
		for _, i := range idx {
			s.Set(int(i))
		}
		back := New(256)
		for _, i := range s.Ones() {
			back.Set(i)
		}
		for i := 0; i < 256; i++ {
			if s.Test(i) != back.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
