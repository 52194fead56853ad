package tensor

import "testing"

func TestClip(t *testing.T) {
	x := []float32{-10, -0.5, 0.5, 10}
	Clip(x, 1)
	want := []float32{-1, -0.5, 0.5, 1}
	for i, v := range x {
		if v != want[i] {
			t.Fatalf("Clip = %v, want %v", x, want)
		}
	}
}
