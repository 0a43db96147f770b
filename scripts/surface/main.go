// Command surface, run from the repository root (go run ./scripts/surface),
// type-checks every package below it with go/types (benchmark/ and any other
// nested module included; .git, .bench_build and testdata skipped, as the go
// tool skips them), prints "file:line name" for each violation of three
// rules and exits 1 if there is any:
//
//   - every <module>/internal/... package has an importer outside examples/
//     and its own directory (test imports count);
//   - every exported func, type, const, var and method declared in a
//     non-test file under internal/, interface methods included, is used by
//     a non-test file outside examples/ or by a test file in another
//     directory. Uses inside the symbol's own declaration, or as a method's
//     receiver, do not count;
//   - every struct field declared in a non-test file under internal/ is read
//     by the same users. Assignment, ++/--, composite-literal keys and the
//     x.f inside x.f = append(x.f, ...) write a field and do not count. A
//     field with a json tag counts as read, as does every field of a struct
//     used as a map key. Embedded and blank fields are not checked.
//
// Every use resolves to the object it names. A used interface method also
// credits the same-named method of every type in the module that implements
// the interface. Methods the standard library calls through fmt.Stringer,
// error and json.Marshaler/Unmarshaler are exempt.
//
// Test packages are checked the way go test builds them: in-package test
// files join their package, an external test package imports that variant,
// and module packages it imports that depend on the package under test are
// checked again against it. Standard-library imports come from the export
// data of one go list -export run. A type error, or a failing go list, exits
// 2.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
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

// stdMethods are the methods the standard library calls through its
// interfaces, by name and signature.
var stdMethods = map[string]string{
	"String":        "() string",
	"Error":         "() string",
	"MarshalJSON":   "() []byte, error",
	"UnmarshalJSON": "([]byte) error",
}

// pkg is one directory's package.
type pkg struct {
	path, dir            string      // import path; directory relative to the root, slash-separated
	files, tests, xtests []*ast.File // non-test, in-package test and external test files
	typ                  *types.Package
	info                 *types.Info // of files
	checking             bool
}

// symbol is a declaration a rule checks: an exported name or a struct field.
// A package violation reuses it with only pos and label set.
type symbol struct {
	pos   token.Pos
	dir   string
	label string
}

// ifaceUse is a call or method value of an interface method, from non-test
// code ("") or a test file in directory from.
type ifaceUse struct {
	fn   *types.Func
	from string
}

type checker struct {
	root     string
	fset     *token.FileSet
	pkgs     map[string]*pkg
	order    []*pkg
	std      types.Importer
	imported map[string]bool
	syms     []symbol
	// uses[p] holds "" when a non-test file uses (for a field, reads) the
	// object declared at p, and the directory of each test file that does.
	uses   map[token.Pos]map[string]bool
	ifaces map[ifaceUse]bool // interface methods used
}

// check returns the violations in the module rooted at root, in file and
// line order.
func check(root string) ([]string, error) {
	c := &checker{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkg{}, imported: map[string]bool{},
		uses: map[token.Pos]map[string]bool{}, ifaces: map[ifaceUse]bool{}}
	if err := c.load(); err != nil {
		return nil, err
	}
	for _, p := range c.order {
		if _, err := c.canonical(p.path); err != nil {
			return nil, err
		}
	}
	for _, p := range c.order {
		for _, f := range p.files {
			c.walk(f, p, false, p.info)
			if internal(p.dir) {
				c.declare(f, p)
			}
		}
		if err := c.checkTests(p); err != nil {
			return nil, err
		}
	}
	c.creditImplementations()

	var out []symbol
	for _, p := range c.order {
		if internal(p.dir) && len(p.files) > 0 && !c.imported[p.path] {
			out = append(out, symbol{pos: p.files[0].Package, label: p.path})
		}
	}
	for _, s := range c.syms {
		if !c.used(s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	vs := make([]string, len(out))
	for i, x := range out {
		p := c.fset.Position(x.pos)
		rel, _ := filepath.Rel(root, p.Filename)
		vs[i] = fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), p.Line, x.label)
	}
	return vs, nil
}

func internal(dir string) bool { return strings.HasPrefix(dir+"/", "internal/") }

// use records that from ("" or a test file's directory) uses the object
// declared at pos.
func (c *checker) use(pos token.Pos, from string) {
	if c.uses[pos] == nil {
		c.uses[pos] = map[string]bool{}
	}
	c.uses[pos][from] = true
}

func (c *checker) used(s symbol) bool {
	for from := range c.uses[s.pos] {
		if from != s.dir {
			return true
		}
	}
	return false
}

// load parses every buildable .go file below the root into its package and
// opens the export data of every standard-library package they import.
func (c *checker) load() error {
	modules := map[string]string{} // directory -> its module's import path, for directories holding a go.mod
	imports := map[string]bool{}
	err := filepath.WalkDir(c.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(c.root, filepath.Dir(p))
		dir = filepath.ToSlash(dir)
		if d.IsDir() {
			if p != c.root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			mod, err := os.ReadFile(filepath.Join(p, "go.mod"))
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			} else if err != nil {
				return err
			}
			m := strings.Fields(string(mod))
			if len(m) < 2 || m[0] != "module" {
				return fmt.Errorf("%s does not start with its module line", filepath.Join(p, "go.mod"))
			}
			rel, _ := filepath.Rel(c.root, p)
			modules[filepath.ToSlash(rel)] = m[1]
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := importPath(modules, dir)
		if ip == "" {
			return fmt.Errorf("%s is outside every module", p)
		}
		pk := c.pkgs[ip]
		if pk == nil {
			pk = &pkg{path: ip, dir: dir}
			c.pkgs[ip] = pk
			c.order = append(c.order, pk)
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			pk.files = append(pk.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pk.xtests = append(pk.xtests, f)
		default:
			pk.tests = append(pk.tests, f)
		}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			imports[ip] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if modules["."] == "" {
		return fmt.Errorf("no go.mod at %s", c.root)
	}
	var paths []string
	for ip := range imports {
		if c.pkgs[ip] == nil && ip != "unsafe" {
			paths = append(paths, ip)
		}
	}
	sort.Strings(paths)
	exports := map[string]string{}
	if len(paths) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
		cmd.Dir = c.root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			ip, file, _ := strings.Cut(line, "\t")
			exports[ip] = file
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(ip string) (io.ReadCloser, error) {
		if exports[ip] == "" {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(exports[ip])
	})
	return nil
}

// importPath returns the import path of the package in dir: its nearest
// enclosing module's path joined with the rest of dir.
func importPath(modules map[string]string, dir string) string {
	for d := dir; ; d = path.Dir(d) {
		if m, ok := modules[d]; ok {
			rest, _ := filepath.Rel(d, dir)
			return path.Join(m, filepath.ToSlash(rest))
		}
		if d == "." {
			return ""
		}
	}
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// typecheck checks files as package path, importing through imp.
func (c *checker) typecheck(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	typ, err := conf.Check(path, c.fset, files, info)
	return typ, info, err
}

// canonical returns the package at path as its non-test importers see it.
func (c *checker) canonical(path string) (*types.Package, error) {
	p := c.pkgs[path]
	if p == nil {
		return c.std.Import(path)
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	if p.typ == nil {
		p.checking = true
		var err error
		p.typ, p.info, err = c.typecheck(path, p.files, importFunc(c.canonical))
		p.checking = false
		if err != nil {
			return nil, err
		}
	}
	return p.typ, nil
}

// checkTests checks p's in-package tests with p, then its external tests
// against that variant, and walks the test files.
func (c *checker) checkTests(p *pkg) error {
	under := p.typ
	if len(p.tests) > 0 {
		typ, info, err := c.typecheck(p.path, append(append([]*ast.File{}, p.files...), p.tests...), importFunc(c.canonical))
		if err != nil {
			return err
		}
		for _, f := range p.tests {
			c.walk(f, p, true, info)
		}
		under = typ
	}
	if len(p.xtests) == 0 {
		return nil
	}
	variants := map[string]*types.Package{p.path: under}
	var imp importFunc
	imp = func(path string) (*types.Package, error) {
		if v := variants[path]; v != nil {
			return v, nil
		}
		q := c.pkgs[path]
		if q == nil || under == p.typ || !c.dependsOn(q, p.path, map[string]bool{}) {
			return c.canonical(path)
		}
		v, _, err := c.typecheck(path, q.files, imp)
		if err != nil {
			return nil, err
		}
		variants[path] = v
		return v, nil
	}
	_, info, err := c.typecheck(p.path+"_test", p.xtests, imp)
	if err != nil {
		return err
	}
	for _, f := range p.xtests {
		c.walk(f, p, true, info)
	}
	return nil
}

// dependsOn reports whether q's non-test files import target, directly or
// not.
func (c *checker) dependsOn(q *pkg, target string, seen map[string]bool) bool {
	for _, imp := range q.typ.Imports() {
		ip := imp.Path()
		if ip == target {
			return true
		}
		if r := c.pkgs[ip]; r != nil && !seen[ip] {
			seen[ip] = true
			if c.dependsOn(r, target, seen) {
				return true
			}
		}
	}
	return false
}

// walk records what f imports and every use and field read in it. Nothing
// under examples/ is recorded.
func (c *checker) walk(f *ast.File, p *pkg, test bool, info *types.Info) {
	if strings.HasPrefix(p.dir+"/", "examples/") {
		return
	}
	from := ""
	if test {
		from = p.dir
	}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		if ip != p.path {
			c.imported[ip] = true
		}
	}
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok {
			for _, s := range g.Specs {
				c.walkDecl(s, from, info)
			}
		} else {
			c.walkDecl(d, from, info)
		}
	}
}

// walkDecl records the uses and field reads in one func declaration or one
// type, const or var spec. A use of something the declaration itself
// declares, or inside a method's receiver, is not recorded.
func (c *checker) walkDecl(d ast.Node, from string, info *types.Info) {
	var recv *ast.FieldList
	if fd, ok := d.(*ast.FuncDecl); ok {
		recv = fd.Recv
	}
	writes := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		case *ast.Ident:
			writes[e] = true
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FieldList:
			return n != recv
		case *ast.AssignStmt:
			for i, e := range n.Lhs {
				write(e)
				if len(n.Rhs) == len(n.Lhs) && selfAppend(e, n.Rhs[i], info) {
					write(n.Rhs[i].(*ast.CallExpr).Args[0])
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				if n.Value != nil {
					write(n.Value)
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true // a struct literal's field key; no other key is a field
			}
		case *ast.MapType:
			c.readAll(info.TypeOf(n.Key), from)
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || !obj.Pos().IsValid() {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if !writes[n] {
					c.use(v.Pos(), from)
				}
				return true
			}
			if obj.Pos() >= d.Pos() && obj.Pos() < d.End() {
				return true
			}
			c.use(obj.Pos(), from)
			if fn, ok := obj.(*types.Func); ok {
				if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
					c.ifaces[ifaceUse{fn, from}] = true
				}
			}
		}
		return true
	})
}

// selfAppend reports whether rhs is append(lhs, ...), which writes lhs and
// reads nothing of it a caller could see.
func selfAppend(lhs, rhs ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs)
}

// readAll marks every field of a struct type t as read from from, and those
// of the structs and arrays it holds by value: comparing or hashing t reads
// them.
func (c *checker) readAll(t types.Type, from string) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.use(u.Field(i).Pos(), from)
			c.readAll(u.Field(i).Type(), from)
		}
	case *types.Array:
		c.readAll(u.Elem(), from)
	}
}

// declare registers the exported names and struct fields that f, a non-test
// file of an internal/ package, declares. A method the standard library
// calls is not registered.
func (c *checker) declare(f *ast.File, p *pkg) {
	add := func(id *ast.Ident, label string) {
		c.syms = append(c.syms, symbol{pos: id.Pos(), dir: p.dir, label: f.Name.Name + "." + label})
	}
	method := func(id *ast.Ident, owner string) {
		if id.IsExported() && stdMethods[id.Name] != sigKey(p.info.Defs[id].(*types.Func)) {
			add(id, owner+"."+id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				if d.Name.IsExported() {
					add(d.Name, d.Name.Name)
				}
				continue
			}
			t := p.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				method(d.Name, "(*"+ptr.Elem().(*types.Named).Obj().Name()+")")
			} else {
				method(d.Name, t.(*types.Named).Obj().Name())
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, s.Name.Name)
					}
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								method(id, s.Name.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(id, id.Name)
						}
					}
				}
			}
		}
	}
	// Fields, labelled by the innermost enclosing type, func or var name.
	owners := []string{""}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			owners = owners[:len(owners)-1]
			return true
		}
		owner := owners[len(owners)-1]
		switch n := n.(type) {
		case *ast.FuncDecl:
			owner = n.Name.Name
		case *ast.TypeSpec:
			owner = n.Name.Name
		case *ast.ValueSpec:
			owner = n.Names[0].Name
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				if fl.Tag != nil {
					tag, _ := strconv.Unquote(fl.Tag.Value)
					if j := reflect.StructTag(tag).Get("json"); j != "" && j != "-" {
						continue // encoding/json reads it
					}
				}
				for _, id := range fl.Names {
					if id.Name != "_" {
						add(id, owner+"."+id.Name)
					}
				}
			}
		}
		owners = append(owners, owner)
		return true
	})
}

// sigKey renders a method's signature without its receiver and names:
// "(int, ...string) bool, error".
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	list := func(t *types.Tuple, variadic bool) string {
		s := make([]string, t.Len())
		for i := range s {
			s[i] = types.TypeString(t.At(i).Type(), nil)
		}
		if variadic {
			s[len(s)-1] = "..." + strings.TrimPrefix(s[len(s)-1], "[]")
		}
		return strings.Join(s, ", ")
	}
	return "(" + list(sig.Params(), sig.Variadic()) + ") " + list(sig.Results(), false)
}

// creditImplementations credits each used interface method's uses to the
// method of that name on every named type in the module whose method set
// holds every method of the interface with the same signature. Signatures
// compare as strings, because the interface and the type may come from
// different checks of the same package.
func (c *checker) creditImplementations() {
	var sets []map[string]*types.Func
	for _, p := range c.order {
		if p.info == nil {
			continue
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			set := map[string]*types.Func{}
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				set[fn.Name()] = fn
			}
			sets = append(sets, set)
		}
	}
	for u := range c.ifaces {
		it := u.fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	types:
		for _, set := range sets {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				fn := set[m.Name()]
				if fn == nil || !m.Exported() && fn.Pkg().Path() != m.Pkg().Path() || sigKey(fn) != sigKey(m) {
					continue types
				}
			}
			c.use(set[u.fn.Name()].Pos(), u.from)
		}
	}
}
