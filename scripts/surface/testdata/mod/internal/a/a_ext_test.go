package a_test

import (
	"testing"

	"fixture/internal/a"
	"fixture/internal/b"
)

// TestVariant passes a Square from the test build of package a to b, which
// type-checks only when b is checked again against that build.
func TestVariant(t *testing.T) {
	if b.Area(a.Hook()) != 4 {
		t.Fatal("area")
	}
}
