package analyzers

import (
	"go/ast"
	"strings"

	"strongdecomp/internal/lint/analysis"
)

// docLintPackages is the godoc contract's coverage: the public facade,
// the persistence-era core, the serving tier, every command, and the
// lint infrastructure itself. Packages outside this allowlist (research
// prototypes under internal/rounds, internal/ls, etc.) are exempt until
// they graduate into the supported surface.
var docLintPackages = map[string]bool{
	modulePath:                                 true,
	modulePath + "/cmd/decompose":              true,
	modulePath + "/cmd/loadgen":                true,
	modulePath + "/cmd/sdlint":                 true,
	modulePath + "/cmd/serve":                  true,
	modulePath + "/cmd/tables":                 true,
	modulePath + "/cmd/verify":                 true,
	modulePath + "/internal/apps":              true,
	modulePath + "/internal/cluster":           true,
	modulePath + "/internal/graph":             true,
	modulePath + "/internal/graphio":           true,
	modulePath + "/internal/lint":              true,
	modulePath + "/internal/lint/analysis":     true,
	modulePath + "/internal/lint/analysistest": true,
	modulePath + "/internal/lint/analyzers":    true,
	modulePath + "/internal/lint/driver":       true,
	modulePath + "/internal/obs":               true,
	modulePath + "/internal/registry":          true,
	modulePath + "/internal/service":           true,
	modulePath + "/internal/service/httpapi":   true,
	modulePath + "/internal/shard":             true,
}

// DocComment is the godoc lint ported onto the analyzer interface: every
// exported identifier in the covered packages must carry a doc comment.
// It is purely syntactic (no type information), so it also backs the
// legacy TestExportedIdentifiersHaveDocComments entry point.
var DocComment = &analysis.Analyzer{
	Name:   "doccomment",
	Doc:    "reports exported identifiers without doc comments in the packages covered by the godoc contract",
	Filter: func(pkgPath string) bool { return docLintPackages[pkgPath] },
	Run:    runDocComment,
}

func runDocComment(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		// Test files are outside the godoc surface; under go vet the
		// augmented test unit includes them, so filter by filename.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		checkFileDocs(pass, f)
	}
	return nil, nil
}

// checkFileDocs reports undocumented exported declarations in one file.
func checkFileDocs(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc.Text() == "" && exportedRecv(d) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				pass.Reportf(d.Pos(), "exported %s %s lacks a doc comment", kind, d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc.Text() != ""
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc.Text() == "" && !groupDoc {
						pass.Reportf(s.Pos(), "exported type %s lacks a doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A group doc ("// Typed errors of ...") covers every
					// spec in the block; otherwise each exported spec needs
					// its own comment (doc or trailing line comment).
					documented := groupDoc || s.Doc.Text() != "" || s.Comment.Text() != ""
					for _, name := range s.Names {
						if name.IsExported() && !documented {
							pass.Reportf(s.Pos(), "exported var/const %s lacks a doc comment", name.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported (an
// unexported type's methods are not part of the public godoc surface).
// Plain functions always count.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver lru[K, V]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
