package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFunctionBudget pins the shape earlier simplifications bought: in the
// engine, the launcher and the two CLIs that drive them, no function in a
// non-test file has a body over 80 lines, so the verbs model cannot grow back
// into one switch (sendRC was 295 lines, sendUD 103), start_pes into one
// function (Attach was 160), nor a job into one function (cluster.Run was 268,
// oshrun's main 447).
func TestFunctionBudget(t *testing.T) {
	const budget = 80
	// The single exemption, by name: the handshake protocol is one pure
	// transition table, read and model-checked row by row as a whole.
	exempt := map[string]bool{"internal/gasnet.step": true}
	for _, pkg := range []string{
		"internal/ib", "internal/shmem", "internal/cluster", "internal/gasnet",
		"internal/pmi", "internal/vclock", "cmd/oshrun", "cmd/osu",
	} {
		t.Run(pkg, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join(pkg, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no Go files in %s (err %v)", pkg, err)
			}
			fset := token.NewFileSet()
			for _, name := range files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				file, err := parser.ParseFile(fset, name, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil || exempt[pkg+"."+fn.Name.Name] {
						continue
					}
					if n := fset.Position(fn.Body.Rbrace).Line - fset.Position(fn.Body.Lbrace).Line - 1; n > budget {
						t.Errorf("%s: %s has a %d-line body (budget %d)", name, fn.Name.Name, n, budget)
					}
				}
			}
		})
	}
}
