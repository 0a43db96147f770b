package main

import (
	"strings"
	"testing"
)

func TestCheckFixture(t *testing.T) {
	vs, err := check("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, v := range vs {
		flagged[v[strings.LastIndexByte(v, ' ')+1:]] = true
	}
	for _, c := range []struct {
		what, name string
		want       bool
	}{
		{"func used only by its own package's test", "a.OwnTestOnly", true},
		{"func used by another package's test", "a.OtherTest", false},
		{"method reached only through an interface", "a.Square.Area", false},
		{"type named only by its methods' receivers", "a.Orphan", true},
		{"internal package imported only from examples/", "fixture/internal/c", true},
	} {
		if flagged[c.name] != c.want {
			t.Errorf("%s: %s flagged = %v, want %v (violations: %q)", c.what, c.name, flagged[c.name], c.want, vs)
		}
	}
}
