package prtree

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestLayering holds what the module's layout promises about the code it
// ships, as opposed to its tests:
//   - the paper's external constructions (internal/extmem, and the sort
//     under them) serve the bulk-load figures and tests only: the facade
//     and the commands build in memory and do not link them;
//   - internal/zoo holds the tests' inputs and brute-force answers: the
//     facade, the commands and the examples do not link it;
//   - only tests place a fault injector under an index (through
//     Options.WrapBackend, or serve's unexported wrapShard): no non-test
//     file outside internal/storage names storage.NewFaulty, and the
//     network faults are internal/serve test code.
func TestLayering(t *testing.T) {
	// The non-test dependencies of every package that ships.
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}",
		".", "./cmd/...", "./examples/...").Output()
	if err != nil {
		var stderr []byte
		if e, ok := err.(*exec.ExitError); ok {
			stderr = e.Stderr
		}
		t.Fatalf("go list: %v\n%s", err, stderr)
	}
	var ships []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		deps := strings.Fields(line)
		pkg := deps[0]
		ships = append(ships, pkg)
		inMemory := pkg == "prtree" || pkg == "prtree/cmd/prtool" || pkg == "prtree/cmd/prtreeserve"
		for _, dep := range deps[1:] {
			if inMemory && (dep == "prtree/internal/extmem" || dep == "prtree/internal/extsort") {
				t.Errorf("%s links the external-memory package %s", pkg, dep)
			}
			if dep == "prtree/internal/zoo" {
				t.Errorf("%s links the test-only %s", pkg, dep)
			}
		}
	}
	for _, want := range []string{"prtree", "prtree/cmd/prtool", "prtree/cmd/prtreeserve", "prtree/examples/quickstart"} {
		if !slices.Contains(ships, want) {
			t.Fatalf("go list did not list %s: %q", want, ships)
		}
	}

	// Every non-test Go file of the repository, the benchmark's module too.
	netFault := regexp.MustCompile(`[Nn]et[Ff]ault|[Ff]aulty`)
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return fs.SkipDir // .git, and the benchmark's build scratch
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir+"/", "internal/storage/") && bytes.Contains(src, []byte("storage.NewFaulty")) {
			t.Errorf("%s names storage.NewFaulty outside internal/storage", path)
		}
		if dir != "internal/serve" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, s := range g.Specs {
					if name := s.(*ast.TypeSpec).Name.Name; netFault.MatchString(name) {
						t.Errorf("%s declares the network-fault type %s", path, name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
