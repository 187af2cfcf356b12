package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Errorf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d, want 7", s.Count())
	}
}

func TestAnyAndLen(t *testing.T) {
	s := New(70)
	if s.Any() {
		t.Error("fresh set must be empty")
	}
	if s.Len() != 70 {
		t.Errorf("Len = %d, want 70", s.Len())
	}
	s.Set(69)
	if !s.Any() {
		t.Error("Any must see the last bit")
	}
}

func TestSubsetOf(t *testing.T) {
	a := New(128)
	b := New(128)
	a.Set(3)
	a.Set(77)
	b.Set(3)
	b.Set(77)
	b.Set(100)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b must hold")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a must not hold")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a must hold")
	}
	empty := New(128)
	if !empty.SubsetOf(a) {
		t.Error("∅ ⊆ a must hold")
	}
}

func TestForEach(t *testing.T) {
	s := New(200)
	want := []int{0, 63, 64, 128, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.ForEach(func(int) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop visited %d bits, want 2", count)
	}
}

func TestPropertySetMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s := New(n)
		ref := make(map[int]bool)
		for op := 0; op < 200; op++ {
			i := r.Intn(n)
			if r.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
