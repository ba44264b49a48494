package shadowdb

// Doc lint: every exported identifier of the audited packages must
// carry a doc comment, and each package must have exactly one package
// comment (in doc.go where one exists). The invariants these packages
// maintain live in their godoc — an undocumented exported identifier
// is an invariant someone will violate. CI runs this test; it is pure
// stdlib (go/ast over the source tree, no build step).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shadowdb/internal/obs/dist"
)

// docLintPackages are the directories audited, relative to the repo
// root. Grow this list as packages are brought up to the standard.
var docLintPackages = []string{
	"internal/member",
	"internal/shard",
	"internal/fault",
	"internal/store",
	"internal/obs/dist",
	"internal/flow",
}

func TestDocLint(t *testing.T) {
	for _, dir := range docLintPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			lintPackage(t, fset, dir, pkg)
		}
	}
}

// TestInvariantCatalogue keeps the one catalogue of runtime invariants,
// the table of DESIGN.md §4.1, equal to the list the checker registers:
// every registered name has a row, every row names a registered
// invariant, and the row's "Needs" cell names the deployment fact the
// invariant reports itself waiting for ("—" when it needs none). The
// other docs point at the table rather than copying it.
func TestInvariantCatalogue(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### 4.1 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4.1")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]string) // name → Needs cell
	row := regexp.MustCompile("(?m)^\\| `([a-z]+/[a-z-]+)` \\|[^|]*\\|[^|]*\\| ([^|]*) \\|")
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		rows[m[1]] = m[2]
	}
	// A fresh checker knows no deployment fact, so every invariant that
	// needs one reports it as the reason it is skipped.
	for _, inv := range dist.NewChecker().Status().Invariants {
		needs, ok := rows[inv.Name]
		switch {
		case !ok:
			t.Errorf("registered invariant %s has no row in the DESIGN.md §4.1 table", inv.Name)
		case inv.Skipped == "" && needs != "—":
			t.Errorf("%s needs no fact, DESIGN.md §4.1 says %q", inv.Name, needs)
		case !strings.HasPrefix(needs, inv.Skipped):
			t.Errorf("%s needs the %s, DESIGN.md §4.1 says %q", inv.Name, inv.Skipped, needs)
		}
		delete(rows, inv.Name)
	}
	for name := range rows {
		t.Errorf("DESIGN.md §4.1 lists %s, which no checker registers", name)
	}
}

// TestRoadmapReferences keeps "ROADMAP item N" and "ROADMAP item N(x)"
// in DESIGN.md and EXPERIMENTS.md pointing at something: ROADMAP.md's
// open items are a numbered list ("N. **Title"), their parts lettered
// paragraphs ("(x) ") inside it, and the list is renumbered now and then.
func TestRoadmapReferences(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`ROADMAP item (\d+)(?:\(([a-z])\))?`)
	nextItem := regexp.MustCompile(`\n\d+\. \*\*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			_, item, ok := strings.Cut(string(roadmap), "\n"+m[1]+". **")
			if !ok {
				t.Errorf("%s cites %q; ROADMAP.md has no item %s", doc, m[0], m[1])
				continue
			}
			item = nextItem.Split(item, 2)[0]
			if m[2] != "" && !strings.Contains(item, "\n   ("+m[2]+") ") {
				t.Errorf("%s cites %q; ROADMAP.md item %s has no part (%s)", doc, m[0], m[1], m[2])
			}
		}
	}
}

func lintPackage(t *testing.T, fset *token.FileSet, dir string, pkg *ast.Package) {
	t.Helper()
	pkgComments := 0
	for name, f := range pkg.Files {
		if f.Doc != nil {
			pkgComments++
			if want := filepath.Join(dir, "doc.go"); name != want {
				t.Errorf("%s: package comment should live in %s", name, want)
			}
		}
		for _, decl := range f.Decls {
			lintDecl(t, fset, decl)
		}
	}
	if pkgComments != 1 {
		t.Errorf("%s: %d package comments, want exactly 1 (in doc.go)", dir, pkgComments)
	}
}

func lintDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return p.Filename + ":" + itoa(p.Line)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment", pos(d), kindOf(d), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					// A doc comment on the grouped decl covers the block
					// (idiomatic for const groups).
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						t.Errorf("%s: exported %s %s has no doc comment", pos(s), d.Tok, n.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is itself
// exported: methods on unexported types are not package API.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	typ := d.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
