package core

// Sorted-slice set operations over dataset-graph IDs. Answer sets and
// candidate sets are kept sorted ascending throughout the cache, so the
// pruning equations (1) and (2) reduce to linear merges.

// intersectSorted returns a ∩ b. The output is preallocated at the first
// hit with the tight upper bound min(|a|, |b|), so the merge allocates at
// most once instead of growing from nil; an empty intersection stays nil.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if out == nil {
				out = make([]int32, 0, min(len(a)-i, len(b)-j))
			}
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// intersectInPlace returns a ∩ b, written over a's prefix: a must be the
// caller's own slice.
func intersectInPlace(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subtractSorted returns a \ b. As in intersectSorted, the output is
// preallocated once at the first kept element (upper bound: the rest of
// a); an empty difference stays nil.
func subtractSorted(a, b []int32) []int32 {
	var out []int32
	j := 0
	for i, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		if out == nil {
			out = make([]int32, 0, len(a)-i)
		}
		out = append(out, x)
	}
	return out
}

// unionSorted returns a ∪ b.
func unionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// intersectCountSorted returns |a ∩ b| without allocating.
func intersectCountSorted(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
