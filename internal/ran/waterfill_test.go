package ran

import "testing"

func TestWaterFill(t *testing.T) {
	cases := []struct {
		wants    []int
		capacity int
		want     []int
	}{
		{[]int{10, 10}, 10, []int{5, 5}},
		{[]int{2, 10}, 10, []int{2, 8}},
		{[]int{1, 1, 1}, 25, []int{1, 1, 1}},
		{[]int{100}, 25, []int{25}},
		{[]int{0, 10}, 10, []int{0, 10}},
		{[]int{}, 10, []int{}},
		{[]int{3, 3, 3}, 2, nil}, // fewer RBGs than users: one each, rotating
	}
	var f WaterFiller
	for i, c := range cases {
		got := f.Fill(c.wants, c.capacity, 0)
		if c.want == nil {
			sum := 0
			for _, g := range got {
				sum += g
			}
			if sum != c.capacity {
				t.Fatalf("case %d: distributed %d, want %d", i, sum, c.capacity)
			}
			continue
		}
		for j := range c.want {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestWaterFillNeverExceedsCapacity(t *testing.T) {
	var f WaterFiller
	wants := []int{7, 3, 9, 1, 12}
	for rot := 0; rot < 7; rot++ {
		for _, cap := range []int{0, 1, 5, 25, 100} {
			got := f.Fill(wants, cap, rot)
			sum := 0
			for i, g := range got {
				sum += g
				if g > wants[i] {
					t.Fatalf("over-grant: %v", got)
				}
			}
			if sum > cap {
				t.Fatalf("cap %d rot %d: granted %d", cap, rot, sum)
			}
		}
	}
}
