//go:build ignore

// Command reach (`go run perf/reach.go`) lists the non-test functions
// outside bench/ that no binary keeps: it links every main of both
// modules, plus one taking every exported facade function, variable and
// method, with -gcflags=all=-l -ldflags=-dumpdep. A function is reached
// if an edge names it or its closure or wrapper (aux symbols are deduped
// by content, so their names prove nothing). Exit 1 on an unreached
// function not in perf/reach.allow (`file function  # reason`) or an
// allow line that is reached, unknown or reasonless.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// brackets matches innermost type arguments, inner a closure or wrapper
// suffix, ptr a pointer receiver, edge a dumpdep separator.
var brackets, inner, ptr, edge = regexp.MustCompile(`\[[^\[\]]*\]`),
	regexp.MustCompile(`\.(func\d+|deferwrap\d+|gowrap\d+|\d+)$`), regexp.MustCompile(`^\*(.*)$`), regexp.MustCompile(` -> |\n`)

func main() {
	root, _ := os.Getwd()
	tmp, err := os.MkdirTemp("", "reach")
	check(err)
	defer os.RemoveAll(tmp)
	check(os.WriteFile(filepath.Join(tmp, "main.go"), []byte(facadeMain()), 0o644))
	check(os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module facaderoot\n\ngo 1.22\n\nrequire hybridstore v0.0.0\n\nreplace hybridstore => "+root+"\n"), 0o644))
	reached := map[string]bool{}
	link := func(dir, pkg string) {
		cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		check(err, pkg, string(out))
		for _, sym := range edge.Split(string(out), -1) {
			sym = strings.TrimSuffix(strings.TrimSpace(sym), "-fm")
			for brackets.MatchString(sym) {
				sym = brackets.ReplaceAllString(sym, "")
			}
			if strings.HasPrefix(sym, "main.") {
				sym = pkg + sym[len("main"):]
			}
			for reached[sym] = true; inner.MatchString(sym); reached[sym] = true {
				sym = inner.ReplaceAllString(sym, "")
			}
		}
	}
	for _, dir := range []string{".", "bench"} {
		out, err := exec.Command("go", "-C", dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
		check(err)
		for _, pkg := range strings.Fields(string(out)) {
			link(dir, pkg)
		}
	}
	link(tmp, ".")
	declared := map[string]string{} // "file function" -> linker symbol
	check(filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if d.IsDir() && path != "." && (path == "bench" || path == "perf" || d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		check(err)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "main" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := brackets.ReplaceAllString(types.ExprString(fn.Recv.List[0].Type), "")
				name = ptr.ReplaceAllString(recv, "(*$1)") + "." + name
			}
			declared[path+" "+name] = filepath.ToSlash(filepath.Join("hybridstore", filepath.Dir(path))) + "." + name
		}
		return nil
	}))
	allow, err := os.ReadFile("perf/reach.allow")
	check(err)
	allowed, bad := map[string]bool{}, 0
	for _, line := range strings.Split(string(allow), "\n") {
		entry, reason, _ := strings.Cut(line, "#")
		key := strings.Join(strings.Fields(entry), " ")
		sym, ok := declared[key]
		allowed[key] = ok && !reached[sym] && strings.TrimSpace(reason) != ""
		if key != "" && !allowed[key] {
			fmt.Printf("reach.allow: %q names no function, is reached, or gives no reason\n", key)
			bad++
		}
	}
	var unreached []string
	for key, sym := range declared {
		if !reached[sym] && !allowed[key] {
			unreached = append(unreached, "unreached: "+key+"\n")
		}
	}
	sort.Strings(unreached)
	fmt.Print(strings.Join(unreached, ""))
	fmt.Printf("%d functions, %d unreached, %d bad allow lines\n", len(declared), len(unreached), bad)
	if bad+len(unreached) > 0 {
		os.Exit(1)
	}
}

// facadeMain is a program taking every exported facade value and method.
func facadeMain() string {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("hybridstore")
	check(err)
	var refs []string
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Func, *types.Var:
			if obj.Exported() {
				refs = append(refs, "hybridstore."+name)
			}
		case *types.TypeName: // of the aliases, only Txn's methods are facade API
			if !obj.Exported() || (obj.IsAlias() && name != "Txn") || types.IsInterface(obj.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					refs = append(refs, "(*hybridstore."+name+")."+m.Name())
				}
			}
		}
	}
	return "package main\n\nimport \"hybridstore\"\n\nvar roots = []any{\n\t" +
		strings.Join(refs, ",\n\t") + ",\n}\n\nfunc main() { println(len(roots)) }\n"
}

func check(err error, detail ...any) {
	if err != nil {
		fmt.Fprintln(os.Stderr, append(detail, err)...)
		os.Exit(2)
	}
}
