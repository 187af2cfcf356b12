package core

import "testing"

// BenchmarkSetOps measures the sorted-slice merges behind the pruning
// equations. The interesting metric is allocs/op: intersect and subtract
// preallocate their output at the first hit with a tight bound, so each
// merge costs at most one allocation however large the inputs.
func BenchmarkSetOps(b *testing.B) {
	mk := func(n, stride, offset int32) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = offset + int32(i)*stride
		}
		return s
	}
	a := mk(1024, 2, 0) // evens
	c := mk(1024, 3, 0) // multiples of 3: ~1/3 overlap with a
	d := mk(1024, 2, 1) // odds: disjoint from a
	sink := []int32(nil)

	b.Run("intersect/overlapping", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink = intersectSorted(a, c)
		}
	})
	b.Run("intersect/disjoint", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink = intersectSorted(a, d)
		}
	})
	b.Run("subtract/overlapping", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink = subtractSorted(a, c)
		}
	})
	b.Run("subtract/all-kept", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink = subtractSorted(a, d)
		}
	})
	b.Run("union", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sink = unionSorted(a, c)
		}
	})
	_ = sink
}
