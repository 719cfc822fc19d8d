package hybridstore_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag package's defining functions and FlagSet
// methods; the flag's name is their first argument, or their second
// for the ones that bind a variable.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// definedFlags reads the non-test sources of the package in dir and
// returns its package name and the flag names its flag calls define
// with a string literal. No program runs.
func definedFlags(t *testing.T, dir string) (pkg string, flags map[string]bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("%s: no Go sources (%v)", dir, err)
	}
	flags = map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg = f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := flagDefiners[sel.Sel.Name]; ok && i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
			}
			return true
		})
	}
	return pkg, flags
}

// TestReadmeCommands holds README's "Reproducing the paper" table to the
// tree: every `go run ./…` row names a main package, and every -flag in
// the row is one that command defines.
func TestReadmeCommands(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Reproducing the paper")
	if !ok {
		t.Fatal("README.md has no \"Reproducing the paper\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := regexp.MustCompile("`go run (\\./[^` ]+)([^`]*)`").FindAllStringSubmatch(section, -1)
	if len(rows) == 0 {
		t.Fatal("the table has no go run row")
	}
	for _, row := range rows {
		dir, args := row[1], strings.Fields(row[2])
		pkg, flags := definedFlags(t, dir)
		if pkg != "main" {
			t.Errorf("%s: package %s, not a command", dir, pkg)
		}
		for _, arg := range args {
			if !strings.HasPrefix(arg, "-") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if !flags[name] {
				t.Errorf("go run %s%s: the command defines no -%s", dir, row[2], name)
			}
		}
	}
}

// readmePrelude declares what README's Go fragments take from the
// quickstart before them: the store, the accounts table and its schema.
const readmePrelude = `package readme

import (
	"fmt"
	"net"
	"os"

	"hybridstore"
	"hybridstore/internal/server"
)

var (
	db       *hybridstore.DB
	sch      *hybridstore.Schema
	accounts *hybridstore.Table
)

var _, _, _, _ = fmt.Println, net.Listen, os.Stdout, server.New
`

// TestReadmeNames type-checks README's Go blocks against the facade's
// sources: a whole program as it stands, each fragment as the body of a
// function after readmePrelude. README is not compiled, so without this
// a deleted name or method survives there. A fragment may leave a
// variable unused; any other error fails.
func TestReadmeNames(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var pkgs [][]*ast.File
	parse := func(src string) *ast.File {
		f, err := parser.ParseFile(fset, "readmePrelude", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	frags := readmePrelude
	for _, m := range regexp.MustCompile("(?s)```go\n(.*?)```").FindAllSubmatchIndex(readme, -1) {
		// A line directive puts errors at the block's own README lines.
		block := fmt.Sprintf("//line README.md:%d\n%s", bytes.Count(readme[:m[2]], []byte("\n"))+1, readme[m[2]:m[3]])
		if bytes.HasPrefix(readme[m[2]:], []byte("package ")) {
			pkgs = append(pkgs, []*ast.File{parse(block)})
		} else {
			frags += "\nfunc _() {\n" + block + "\n}\n"
		}
	}
	pkgs = append(pkgs, []*ast.File{parse(frags)})
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error: func(err error) {
			if msg := err.Error(); !strings.Contains(msg, "declared and not used") {
				t.Error(msg)
			}
		},
	}
	for _, pkg := range pkgs {
		conf.Check(pkg[0].Name.Name, fset, pkg, nil)
	}
}
