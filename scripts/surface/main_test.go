package main

import (
	"os"
	"path/filepath"
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
		{"interface method called outside its package", "b.Shape.Area", false},
		{"String method nothing calls", "a.Square.String", false},
		{"func the external test reaches through export_test.go", "a.Hook", false},
		{"type named only by its methods' receivers", "a.Orphan", true},
		{"method whose only use is a same-named field of another type", "a.(*Meter).Rate", true},
		{"field that is only assigned", "a.Config.Written", true},
		{"field read only by its own package's test", "a.Config.OwnRead", true},
		{"field read by another package's test", "a.Config.OtherRead", false},
		{"field that is only appended to itself", "a.Log.entries", true},
		{"func used only from examples/", "a.ExampleOnly", true},
		{"json-tagged field", "a.Config.Tagged", false},
		{"field of a map key", "a.Key.X", false},
		{"func field that is called", "b.Info.Rate", false},
		{"internal package imported only from examples/", "fixture/internal/c", true},
	} {
		if flagged[c.name] != c.want {
			t.Errorf("%s: %s flagged = %v, want %v (violations: %q)", c.what, c.name, flagged[c.name], c.want, vs)
		}
	}
}

// TestTypeError holds that a package that does not type-check is an error,
// not a package whose uses silently vanish.
func TestTypeError(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module broken\n\ngo 1.22\n",
		"internal/x/x.go": "package x\n\nvar X int = \"not an int\"\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if vs, err := check(dir); err == nil {
		t.Fatalf("check = %q, nil error; want a type error", vs)
	}
}
