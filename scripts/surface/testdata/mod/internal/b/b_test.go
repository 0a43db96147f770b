package b

import (
	"testing"

	"fixture/internal/a"
)

func TestOther(t *testing.T) {
	a.OtherTest()
	if (a.Config{}).OtherRead != 0 {
		t.Fatal("OtherRead")
	}
}
