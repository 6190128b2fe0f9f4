// Command deadcode fails when a non-test function of this module is linked
// into no program. It builds every main package, the bench module and a
// generated main that references every exported identifier of the root
// package (the library facade), all with inlining off, reads their
// symbols with `go tool nm`, and compares them with the function and
// method declarations go/ast finds in the module's non-test files outside
// internal/tools. An unlinked declaration fails the run unless allow.txt
// (next to this file) lists it as "symbol  # reason"; so does an allow.txt
// entry that is linked or no longer declared.
//
// Usage, from the module root:
//
//	go run ./internal/tools/deadcode
package main

import (
	"fmt"
	"go/ast"
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

func main() {
	mod := strings.TrimSpace(run("", "go", "list", "-m"))
	wd, err := os.Getwd()
	check(err)
	tmp, err := os.MkdirTemp("", "deadcode")
	check(err)
	defer os.RemoveAll(tmp)

	decls := map[string]string{} // declaration key -> "file:line (N lines)"
	bins := map[string]string{}  // binary -> package its main.* symbols belong to
	var mains, refs []string
	fset := token.NewFileSet()
	list := run("", "go", "list", "-f", "{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles \" \"}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Fields(line)
		pkg, name, dir := f[0], f[1], f[2]
		if strings.HasPrefix(pkg, mod+"/internal/tools/") {
			continue
		}
		if name == "main" {
			mains = append(mains, pkg)
			bins[filepath.Join(tmp, "bin", filepath.Base(pkg))] = pkg
		}
		for _, file := range f[3:] {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.ParseComments)
			check(err)
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
					start := fd.Pos()
					if fd.Doc != nil {
						start = fd.Doc.Pos()
					}
					p, end := fset.Position(start), fset.Position(fd.End()).Line
					rel, _ := filepath.Rel(wd, p.Filename)
					decls[pkg+"."+funcKey(fd)] = fmt.Sprintf("%s:%d (%d lines)", rel, p.Line, end-p.Line+1)
				}
				if pkg == mod {
					refs = append(refs, facadeRefs(d, name)...)
				}
			}
		}
	}

	// The facade main: every exported root function, method, type, var and
	// const in one slice main reads, so the linker keeps what they reach.
	src := filepath.Join(tmp, "facade.go")
	check(os.WriteFile(src, []byte("package main\n\nimport \""+mod+"\"\n\nvar refs = []any{\n\t"+
		strings.Join(refs, ",\n\t")+",\n}\n\nfunc main() { println(len(refs)) }\n"), 0o644))
	bins[filepath.Join(tmp, "bench")], bins[filepath.Join(tmp, "facade")] = "", ""
	build := []string{"build", "-gcflags=all=-l", "-o"}
	run("", "go", append(append(build, filepath.Join(tmp, "bin")+string(filepath.Separator)), mains...)...)
	run("bench", "go", append(build, filepath.Join(tmp, "bench"), ".")...)
	run("", "go", append(build, filepath.Join(tmp, "facade"), src)...)

	linked := map[string]bool{}
	for bin, mainPkg := range bins {
		for _, line := range strings.Split(run("", "go", "tool", "nm", bin), "\n") {
			// "addr kind name"; a name may contain spaces (shape types).
			if f := strings.SplitN(strings.TrimSpace(line), " ", 3); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if key, ok := normalize(f[2], mod, mainPkg); ok {
					linked[key] = true
				}
			}
		}
	}

	allow := map[string]bool{}
	raw, err := os.ReadFile(filepath.Join("internal", "tools", "deadcode", "allow.txt"))
	check(err)
	var bad []string
	for _, line := range strings.Split(string(raw), "\n") {
		sym, reason, _ := strings.Cut(line, "#")
		if sym = strings.TrimSpace(sym); sym == "" {
			continue
		}
		allow[sym] = true
		if _, declared := decls[sym]; strings.TrimSpace(reason) == "" || linked[sym] || !declared {
			bad = append(bad, "allow.txt: "+sym+" is linked, undeclared or without a reason")
		}
	}
	for key, pos := range decls {
		if !linked[key] && !allow[key] {
			bad = append(bad, pos+": "+key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d finding(s)\n", len(bad))
		os.Exit(1)
	}
}

// facadeRefs returns the facade main's references to the exported
// identifiers one root-package declaration introduces.
func facadeRefs(d ast.Decl, pkg string) []string {
	var refs []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		recv, _, isMethod := strings.Cut(funcKey(d), ".")
		switch {
		case !d.Name.IsExported() || d.Type.TypeParams != nil || (isMethod && !ast.IsExported(recv)):
		case isMethod:
			refs = append(refs, "(*"+pkg+"."+recv+")."+d.Name.Name)
		default:
			refs = append(refs, pkg+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.TypeParams == nil {
					refs = append(refs, "(*"+pkg+"."+s.Name.Name+")(nil)")
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						refs = append(refs, pkg+"."+n.Name)
					}
				}
			}
		}
	}
	return refs
}

var (
	// typeArgs matches an innermost [type argument list] of a symbol.
	typeArgs = regexp.MustCompile(`\[[^][]*\]`)
	// closure matches the symbol elements the compiler appends to a
	// function for the function literals, go and defer wrappers inside it.
	closure = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)
)

// normalize maps a linker symbol of module mod to the key of the
// declaration it came from, "pkg.F" or "pkg.T.M"; main.* symbols belong
// to mainPkg. Pointer and value receivers, type arguments, closures and
// method values all collapse onto their declaration; ok is false for
// symbols of other modules.
func normalize(sym, mod, mainPkg string) (key string, ok bool) {
	if mainPkg != "" && strings.HasPrefix(sym, "main.") {
		sym = mainPkg + sym[len("main"):]
	}
	if !strings.HasPrefix(sym, mod+".") && !strings.HasPrefix(sym, mod+"/") {
		return "", false
	}
	s := ""
	for s != sym { // strip type arguments, innermost lists first
		s, sym = sym, typeArgs.ReplaceAllString(sym, "")
	}
	slash := strings.LastIndex(s, "/") + 1
	dot := strings.Index(s[slash:], ".")
	pkg, rest := s[:slash+dot], s[slash+dot+1:]
	parts := strings.Split(strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest), ".")
	n := 0
	for n < len(parts) && n < 2 && parts[n] != "" && !closure.MatchString(parts[n]) {
		n++
	}
	return pkg + "." + strings.Join(parts[:n], "."), n > 0
}

// funcKey is a declaration's key within its package: "F", or "T.M" for a
// method, whatever its receiver's pointer-ness and type parameters.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"), "[")
	return recv + "." + fd.Name.Name
}

// run executes a command in dir and returns its standard output, exiting
// on failure.
func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}
