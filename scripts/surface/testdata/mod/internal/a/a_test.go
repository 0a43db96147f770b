package a

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	if (Config{}).OwnRead != 0 {
		t.Fatal("OwnRead")
	}
}
