package report

import "testing"

func TestBar(t *testing.T) {
	tests := []struct {
		name  string
		v     float64
		maxV  float64
		width int
		want  string
	}{
		{"empty", 1, 2, 0, ""},
		{"zero", 0, 10, 4, "...."},
		{"half", 5, 10, 4, "##.."},
		{"full", 10, 10, 4, "####"},
		{"clamped above", 99, 10, 4, "####"},
		{"clamped below", -5, 10, 4, "...."},
		{"zero scale", 5, 0, 4, "...."},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Bar(tt.v, tt.maxV, tt.width); got != tt.want {
				t.Fatalf("Bar = %q, want %q", got, tt.want)
			}
		})
	}
}
