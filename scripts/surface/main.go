// Command surface, run from the repository root (go run ./scripts/surface),
// parses every .go file below it (benchmark/ included; .git, .bench_build
// and testdata skipped), prints "file:line name" for each violation of two
// rules and exits 1 if there is any:
//
//   - every <module>/internal/... package has an importer outside examples/
//     and its own directory (test imports count);
//   - every exported func, type, const, var and method declared in a
//     non-test file under internal/ is used by a non-test file anywhere or a
//     test file in another directory. Uses inside the symbol's own
//     declaration, or as a method's receiver, do not count.
//
// Top-level names resolve as pkg.Name through the file's imports, or as
// bare identifiers in the declaring package. Methods resolve by name: any
// selector that is not package-qualified counts, as does a method of that
// name on an interface declared in the module or on fmt.Stringer, error or
// json.Marshaler/Unmarshaler.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	vs, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "surface:", err)
		os.Exit(2)
	}
	for _, v := range vs {
		fmt.Println(v)
	}
	if len(vs) > 0 {
		os.Exit(1)
	}
}

// stdMethods are methods the standard library calls through its interfaces.
var stdMethods = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

type file struct {
	dir  string // slash-separated, relative to the root
	test bool
	ast  *ast.File
}

// key is what a use names: a top-level name in dir, or (dir "") a method.
type key struct{ dir, name string }

// symbol is an exported declaration in dir. A package violation reuses it
// with only pos and label set.
type symbol struct {
	key
	dir   string
	pos   token.Pos
	label string
}

// check returns the violations in the module rooted at root, in file and
// line order.
func check(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := strings.Fields(string(mod))
	if len(m) < 2 || m[0] != "module" {
		return nil, fmt.Errorf("%s does not start with its module line", filepath.Join(root, "go.mod"))
	}
	module := m[1]
	fset := token.NewFileSet()
	var files []file
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && p != root && (d.Name() == ".git" || d.Name() == ".bench_build" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(p))
		files = append(files, file{filepath.ToSlash(dir), strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	internal := func(dir string) bool { return strings.HasPrefix(dir+"/", "internal/") }
	imported := map[string]bool{}
	var syms []symbol
	// uses[k] holds "" when a non-test file uses k, and the directory of
	// each test file that does.
	uses := map[key]map[string]bool{}
	for _, f := range files {
		from := ""
		if f.test {
			from = f.dir
		}
		// Local name -> directory in the module; an unnamed import's local
		// name is its directory's last element, as Go's convention has it.
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(f.dir+"/", "examples/") && ip != path.Join(module, f.dir) {
				imported[ip] = true
			}
			if dir, ok := strings.CutPrefix(ip, module+"/"); ok {
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
		}
		for _, u := range units(f.ast) {
			self := map[key]bool{}
			for _, id := range u.ids {
				k, label := key{f.dir, id.Name}, f.ast.Name.Name+"."+id.Name
				if u.recv != nil {
					k.dir, label = "", f.ast.Name.Name+"."+recvName(u.recv.List[0].Type)+"."+id.Name
				}
				self[k] = true
				if !f.test && internal(f.dir) && ast.IsExported(id.Name) {
					syms = append(syms, symbol{k, f.dir, id.Pos(), label})
				}
			}
			add := func(k key) {
				if !self[k] {
					if uses[k] == nil {
						uses[k] = map[string]bool{}
					}
					uses[k][from] = true
				}
			}
			var inspect func(ast.Node) bool
			inspect = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FieldList:
					return n != u.recv
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						add(key{imports[x.Name], n.Sel.Name})
						return false
					}
					add(key{"", n.Sel.Name})
					ast.Inspect(n.X, inspect)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							add(key{"", id.Name})
						}
					}
				case *ast.Ident:
					add(key{f.dir, n.Name})
				}
				return true
			}
			ast.Inspect(u.node, inspect)
		}
	}

	var out []symbol
	for _, f := range files {
		if ip := path.Join(module, f.dir); !f.test && internal(f.dir) && !imported[ip] {
			imported[ip] = true // report each package once
			out = append(out, symbol{pos: f.ast.Package, label: ip})
		}
	}
	for _, s := range syms {
		used := s.key.dir == "" && stdMethods[s.name]
		for from := range uses[s.key] {
			used = used || from != s.dir
		}
		if !used {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	vs := make([]string, len(out))
	for i, x := range out {
		p := fset.Position(x.pos)
		rel, _ := filepath.Rel(root, p.Filename)
		vs[i] = fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), p.Line, x.label)
	}
	return vs, nil
}

// unit is one declaration: a func, or a type, const or var spec.
type unit struct {
	node ast.Node
	ids  []*ast.Ident   // the names it declares
	recv *ast.FieldList // a method's receiver
}

func units(f *ast.File) []unit {
	var us []unit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			us = append(us, unit{d, []*ast.Ident{d.Name}, d.Recv})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					us = append(us, unit{s, []*ast.Ident{s.Name}, nil})
				case *ast.ValueSpec:
					us = append(us, unit{s, s.Names, nil})
				}
			}
		}
	}
	return us
}

// recvName renders a receiver type as written: "T" or "(*T)".
func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(t.X) + ")"
	case *ast.IndexExpr: // a generic type, T[P]
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
