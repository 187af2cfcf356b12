//go:build !race

package iso

import "testing"

// TestContainsAllocations pins what the signatures, the shape words and
// the stack-held search state bought: Contains allocates nothing, however
// the test ends — at a screen, in a failed search or with a hit, whose
// embedding only FindEmbedding copies out. The race detector allocates on
// its own account, so this file is not built under -race.
func TestContainsAllocations(t *testing.T) {
	for _, a := range []Algorithm{VF2{}, VF2Plus{}} {
		for name, pt := range containsCases() {
			want := name == "hit"
			if got := Contains(a, pt[0], pt[1]); got != want {
				t.Fatalf("%s/%s: Contains = %v, want %v", a.Name(), name, got, want)
			}
			if n := testing.AllocsPerRun(50, func() { Contains(a, pt[0], pt[1]) }); n != 0 {
				t.Errorf("%s/%s: %v allocs per test, want 0", a.Name(), name, n)
			}
		}
	}
}
