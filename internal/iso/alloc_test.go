//go:build !race

package iso

import "testing"

// TestContainsAllocations pins what the signatures and the stack-held
// search state bought: a test a screen rejects allocates nothing, a test
// whose search fails allocates nothing, and a hit allocates only the
// embedding it returns. The race detector allocates on its own account,
// so this file is not built under -race.
func TestContainsAllocations(t *testing.T) {
	ceilings := map[string]float64{"hit": 1, "label-reject": 0, "edge-reject": 0, "structure-reject": 0}
	for _, a := range []Algorithm{VF2{}, VF2Plus{}} {
		for name, pt := range containsCases() {
			want := name == "hit"
			if got := Contains(a, pt[0], pt[1]); got != want {
				t.Fatalf("%s/%s: Contains = %v, want %v", a.Name(), name, got, want)
			}
			if n := testing.AllocsPerRun(50, func() { Contains(a, pt[0], pt[1]) }); n > ceilings[name] {
				t.Errorf("%s/%s: %v allocs per test, want ≤ %v", a.Name(), name, n, ceilings[name])
			}
		}
	}
}
