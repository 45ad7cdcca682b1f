package topology

import (
	"testing"
	"testing/quick"
)

func TestNewFatTreeErrors(t *testing.T) {
	if _, err := NewFatTree(0, 8); err == nil {
		t.Error("NewFatTree(0, 8) accepted")
	}
	if _, err := NewFatTree(-3, 8); err == nil {
		t.Error("NewFatTree(-3, 8) accepted")
	}
	if _, err := NewFatTree(8, 1); err == nil {
		t.Error("NewFatTree(8, 1) accepted")
	}
	for _, radix := range []int{3, 6, 12} {
		if _, err := NewFatTree(8, radix); err == nil {
			t.Errorf("NewFatTree(8, %d) accepted a radix that is not a power of two", radix)
		}
	}
}

// loopHops is the division loop Hops used before its closed form: climb
// one router level per division until both nodes share an ancestor.
func loopHops(radix, a, b int) int {
	hops := 0
	for a != b {
		a /= radix
		b /= radix
		hops += 2
	}
	return hops
}

// TestHopsMatchesDivisionLoop checks the closed-form Hops and
// CommonAncestorLevel against the division loop on every pair of nodes of
// trees up to 2048 nodes, at every power-of-two radix up to 16.
func TestHopsMatchesDivisionLoop(t *testing.T) {
	const nodes = 2048 // every smaller tree's pairs are a subset
	for _, radix := range []int{2, 4, 8, 16} {
		ft, err := NewFatTree(nodes, radix)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < nodes; a++ {
			for b := 0; b < nodes; b++ {
				want := loopHops(radix, a, b)
				if got := ft.Hops(a, b); got != want {
					t.Fatalf("radix %d: Hops(%d, %d) = %d, want %d", radix, a, b, got, want)
				}
				if got := ft.CommonAncestorLevel(a, b); got != want/2 {
					t.Fatalf("radix %d: CommonAncestorLevel(%d, %d) = %d, want %d", radix, a, b, got, want/2)
				}
			}
		}
	}
}

func TestLevels(t *testing.T) {
	cases := []struct {
		nodes, radix, levels int
	}{
		{1, 8, 0},
		{2, 8, 1},
		{8, 8, 1},
		{9, 8, 2},
		{64, 8, 2},
		{65, 8, 3},
		{128, 8, 3},
		{2, 2, 1},
		{4, 2, 2},
		{16, 2, 4},
	}
	for _, c := range cases {
		ft, err := NewFatTree(c.nodes, c.radix)
		if err != nil {
			t.Fatalf("NewFatTree(%d, %d): %v", c.nodes, c.radix, err)
		}
		if ft.Levels() != c.levels {
			t.Errorf("NewFatTree(%d, %d).Levels() = %d, want %d", c.nodes, c.radix, ft.Levels(), c.levels)
		}
		if ft.Diameter() != 2*c.levels {
			t.Errorf("Diameter = %d, want %d", ft.Diameter(), 2*c.levels)
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	ft, err := NewFatTree(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, hops int
	}{
		{0, 0, 0},
		{0, 1, 2},   // same level-1 router
		{0, 7, 2},   // same level-1 router
		{0, 8, 4},   // adjacent level-1 routers
		{0, 63, 4},  // same level-2 router
		{0, 64, 6},  // different level-2 routers
		{0, 127, 6}, // opposite corners
		{100, 101, 2},
	}
	for _, c := range cases {
		if got := ft.Hops(c.a, c.b); got != c.hops {
			t.Errorf("Hops(%d, %d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	ft, err := NewFatTree(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		x, y := int(a)%128, int(b)%128
		h := ft.Hops(x, y)
		if h != ft.Hops(y, x) {
			return false
		}
		if (h == 0) != (x == y) {
			return false
		}
		if h%2 != 0 || h > ft.Diameter() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequalityProperty(t *testing.T) {
	ft, err := NewFatTree(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		return ft.Hops(x, z) <= ft.Hops(x, y)+ft.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsOutOfRangePanics(t *testing.T) {
	ft, _ := NewFatTree(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ft.Hops(0, 8)
}

func TestCommonAncestorLevel(t *testing.T) {
	ft, _ := NewFatTree(64, 8)
	if got := ft.CommonAncestorLevel(3, 3); got != 0 {
		t.Errorf("CommonAncestorLevel(3,3) = %d, want 0", got)
	}
	if got := ft.CommonAncestorLevel(0, 5); got != 1 {
		t.Errorf("CommonAncestorLevel(0,5) = %d, want 1", got)
	}
	if got := ft.CommonAncestorLevel(0, 8); got != 2 {
		t.Errorf("CommonAncestorLevel(0,8) = %d, want 2", got)
	}
}

func TestSingleNodeTree(t *testing.T) {
	ft, err := NewFatTree(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Hops(0, 0) != 0 || ft.Levels() != 0 || ft.Diameter() != 0 {
		t.Errorf("single-node tree: hops=%d levels=%d diameter=%d", ft.Hops(0, 0), ft.Levels(), ft.Diameter())
	}
}
