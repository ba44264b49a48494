package shadowdb

// Doc lint: every exported identifier of the audited packages must
// carry a doc comment, and each package must have exactly one package
// comment (in doc.go where one exists). The invariants these packages
// maintain live in their godoc — an undocumented exported identifier
// is an invariant someone will violate. CI runs this test; it is pure
// stdlib (go/ast over the source tree, no build step).

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
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
	"internal/deploy",
	"internal/runtime",
	"internal/des",
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
// invariant reports itself waiting for (a leading "—" when it needs
// none). The other docs point at the table rather than copying it.
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
	for _, inv := range dist.NewChecker(dist.Facts{}).Status().Invariants {
		needs, ok := rows[inv.Name]
		switch {
		case !ok:
			t.Errorf("registered invariant %s has no row in the DESIGN.md §4.1 table", inv.Name)
		case inv.Skipped == "" && !strings.HasPrefix(needs, "—"):
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

// TestTimerCatalogue keeps the "Timers" table of DESIGN.md §8 equal to
// the timers the protocol code arms: every msg.SendAfter call outside
// tests and internal/bench (whose timers drive experiments, not
// protocols) must name its header as a constant of its own package, that
// header must have a row, and every row must name a header some call
// arms. A wait added to — or taken off — a request's path then shows up
// in the one place that says which waits are on the commit path.
func TestTimerCatalogue(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### Timers\n")
	if !ok {
		t.Fatal("DESIGN.md has no Timers table")
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z.]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
	}

	armed := make(map[string]string) // header → one site that arms it
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "internal/bench" || path == "benchmark") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			consts := stringConsts(pkg)
			ast.Inspect(pkg, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSel(call.Fun, "msg", "SendAfter") {
					return true
				}
				site := fset.Position(call.Pos()).String()
				hdr := ""
				if m, ok := call.Args[2].(*ast.CallExpr); ok && isSel(m.Fun, "msg", "M") {
					if id, ok := m.Args[0].(*ast.Ident); ok {
						hdr = consts[id.Name]
					}
				}
				if hdr == "" {
					t.Errorf("%s: timer's header is not msg.M(<constant of this package>, …); the catalogue cannot name it", site)
				} else {
					armed[hdr] = site
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for hdr, site := range armed {
		if !rows[hdr] {
			t.Errorf("%s arms %s, which has no row in the DESIGN.md §8 Timers table", site, hdr)
		}
		delete(rows, hdr)
	}
	for hdr := range rows {
		t.Errorf("DESIGN.md §8 Timers table lists %s, which no msg.SendAfter call arms", hdr)
	}
}

// TestOrderedTagCatalogue keeps the "Ordered payload tags" table of
// DESIGN.md §9 equal to the payloads the total order carries, by codec
// tag: a transaction (the slot loop's own) and a PBR recovery proposal,
// every tag a plain SMR replica dispatches (owner internal/core), and
// every tag a shard replica's ledger adds (owner internal/shard); each
// row's Go type is the one registered under its tag. A new ordered event
// shows up in the one place that lists what the total order carries.
func TestOrderedTagCatalogue(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### Ordered payload tags\n")
	if !ok {
		t.Fatal("DESIGN.md has no Ordered payload tags table")
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := make(map[byte]string) // tag → "type owner"
	for _, m := range regexp.MustCompile("(?m)^\\| `0x([0-9a-f]{2})` \\| `([^`]+)` \\| `([a-z/]+)` \\|").FindAllStringSubmatch(section, -1) {
		tag, _ := strconv.ParseUint(m[1], 16, 8)
		rows[byte(tag)] = m[2] + " " + m[3]
	}
	types := make(map[byte]string)
	for _, wt := range msg.WireTags() {
		types[wt.Tag] = wt.Type.String()
	}
	open := func(ext core.SMRExtension) map[byte]bool {
		db, err := sqldb.Open("h2:mem:tags")
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.OpenSMRReplica(core.SMRConfig{Self: "r1", DB: db, Registry: core.BankRegistry(), Ext: ext})
		if err != nil {
			t.Fatal(err)
		}
		tags := make(map[byte]bool)
		for _, tag := range r.OrderedTags() {
			tags[tag] = true
		}
		return tags
	}
	owners := map[byte]string{msg.TagOf[core.TxRequest](): "internal/core", msg.TagOf[core.NewConfig](): "internal/core"}
	plain := open(nil)
	for tag := range open(shard.NewLedger(0, shard.Bank())) {
		owners[tag] = "internal/shard"
		if plain[tag] {
			owners[tag] = "internal/core"
		}
	}
	for tag, owner := range owners {
		want := types[tag] + " " + owner
		switch got, ok := rows[tag]; {
		case !ok:
			t.Errorf("the order carries tag %#02x (%s), which has no row in the DESIGN.md §9 Ordered payload tags table", tag, want)
		case got != want:
			t.Errorf("tag %#02x is %s, DESIGN.md §9 says %s", tag, want, got)
		}
		delete(rows, tag)
	}
	for tag, row := range rows {
		t.Errorf("DESIGN.md §9 Ordered payload tags table lists %#02x (%s), which the order does not carry", tag, row)
	}
}

// TestWireTagCatalogue keeps the "Wire tags" table of DESIGN.md §8 equal
// to the body codecs the protocol packages register with the wire codec
// (msg.WireTags): each tag's Go type and the package that owns it. A new
// body codec shows up in the one place that lists what a frame carries
// without the gob fallback.
func TestWireTagCatalogue(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### Wire tags\n")
	if !ok {
		t.Fatal("DESIGN.md has no Wire tags table")
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := make(map[string]string) // tag → "type owner"
	for _, m := range regexp.MustCompile("(?m)^\\| `(0x[0-9a-f]{2})` \\| `([^`]+)` \\| `([a-z/]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = m[2] + " " + m[3]
	}
	for _, wt := range msg.WireTags() {
		tag, typ := fmt.Sprintf("%#02x", wt.Tag), wt.Type
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		want := wt.Type.String() + " " + strings.TrimPrefix(typ.PkgPath(), "shadowdb/")
		switch got, ok := rows[tag]; {
		case !ok:
			t.Errorf("tag %s (%s) has no row in the DESIGN.md §8 Wire tags table", tag, want)
		case got != want:
			t.Errorf("tag %s is registered as %s, DESIGN.md §8 says %s", tag, want, got)
		}
		delete(rows, tag)
	}
	for tag, row := range rows {
		t.Errorf("DESIGN.md §8 Wire tags table lists %s (%s), which no package registers", tag, row)
	}
}

// gobImporters are the only non-test files allowed to import
// encoding/gob: none. The wire codec (msg.RegisterCodec) is the one
// encoding of frames, journal records, snapshots and trace files, so no
// reflection touches the wire, the disk or a trace (ROADMAP item 16).
var gobImporters []string

// TestGobImporters keeps gob out of the program: a payload, body,
// record or file that reaches for encoding/gob instead of a codec
// registered with the wire codec fails here, whatever its tests measure.
func TestGobImporters(t *testing.T) {
	var got []string
	goSources(t, parser.ImportsOnly, false, func(path string, f *ast.File) {
		for _, is := range f.Imports {
			if is.Path.Value == `"encoding/gob"` {
				got = append(got, path)
			}
		}
	})
	if !slices.Equal(got, gobImporters) {
		t.Errorf("non-test files importing encoding/gob: %v, want exactly %v", got, gobImporters)
	}
}

// oneWiring are the only non-test files outside internal/core that
// construct a replication role themselves (an SMR or PBR replica, the
// sharded router, a broadcast service) instead of taking it from
// deploy.Node.Process, each for its reason.
var oneWiring = map[string]string{
	"internal/deploy/process.go": "the one wiring: cmd/shadowdb, shadowdb.Open and the simulator build every node here",
	"internal/bench/shard.go":    "the simulated router: its 2PC retry period is an experiment parameter no deploy.Node field carries",
	"internal/bench/readpath.go": "MeasureReadAllocs, a single-process microbenchmark, not a cluster",
	"internal/bench/fig10.go":    "measureTransfer, a single-process microbenchmark, not a cluster",
	"internal/bench/table1.go":   "spec statistics: it counts the broadcast spec's classes and runs none",
	"internal/bench/shadow.go":   "Fig. 8: the cost calibration and the bare service its clients subscribe to",
	"benchmark/cluster.go":       "the live benchmark's own cluster, until ROADMAP item 9(iv)",
}

// wiringCalls are the constructors of the replication roles.
var wiringCalls = map[string][]string{
	"core":      {"OpenSMRReplica", "NewPBRReplica", "NewDurablePBRReplica", "NewDurableSMRReplica"},
	"shard":     {"NewRouter"},
	"broadcast": {"Spec", "Generator"},
}

// TestOneWiring keeps one construction of every role: what the binaries
// ship and what the simulator certifies are both deploy.Node.Process, so
// a feature cannot be on in one and off in the other. A new file that
// calls a role constructor fails here.
func TestOneWiring(t *testing.T) {
	got := map[string]bool{}
	goSources(t, 0, false, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/core/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && slices.Contains(wiringCalls[pkg.Name], sel.Sel.Name) {
					got[path] = true
				}
			}
			return true
		})
	})
	for path := range got {
		if _, ok := oneWiring[path]; !ok {
			t.Errorf("%s constructs a replication role; build it through deploy.Node.Process", path)
		}
	}
	for path := range oneWiring {
		if !got[path] {
			t.Errorf("%s constructs no replication role any more; drop it from oneWiring", path)
		}
	}
}

// registryCalls write a process-global registry: the wire codec's, the
// envelope deadline extractors' and the trace coordinate extractors'.
// RegisterWireTypes is the benchmark module's empty shim.
var registryCalls = []string{"RegisterCodec", "RegisterDeadline", "RegisterExtractor", "RegisterWireTypes"}

// TestRegistriesFillAtInit keeps every process-global registry written
// only from a package's init, before any goroutine runs: the lookups
// then need no lock, and a payload's bytes never depend on which
// packages a caller registered, since importing a package registers its
// bodies. Every Go file outside benchmark/, test files included, may
// call a registryCalls function only inside a receiver-less func init.
func TestRegistriesFillAtInit(t *testing.T) {
	goSources(t, 0, true, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "benchmark/") {
			return
		}
		for _, d := range f.Decls {
			where := "a package-level declaration"
			if fn, ok := d.(*ast.FuncDecl); ok {
				if fn.Recv == nil && fn.Name.Name == "init" {
					continue
				}
				where = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := call.Fun
				if ix, ok := fun.(*ast.IndexExpr); ok { // RegisterCodec[T](…)
					fun = ix.X
				}
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					fun = sel.Sel
				}
				if id, ok := fun.(*ast.Ident); ok && slices.Contains(registryCalls, id.Name) {
					t.Errorf("%s: %s calls %s; register from func init", path, where, id.Name)
				}
				return true
			})
		}
	})
}

// goSources parses every Go file of the repository, test files only
// when tests is set and dot directories skipped, with mode, and visits
// each by slash path in walk order.
func goSources(t *testing.T, mode parser.Mode, tests bool, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlagCatalogue keeps README's "Command reference" tables for
// cmd/shadowdb and cmd/shadowdb-client equal to the flags the two
// binaries register (both register through internal/deploy): every flag
// has a row, every row names a flag, and the row's default is the
// flag's. A row may list several flags ("`-a` / `-b`") with their
// defaults in step; a default is "—" for the empty string or the
// backquoted value, optionally followed by a gloss in parentheses.
func TestFlagCatalogue(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	node, client := deploy.Default(), deploy.DefaultClient()
	for heading, register := range map[string]func(*flag.FlagSet){
		"\n### `cmd/shadowdb` ":         node.RegisterFlags,
		"\n### `cmd/shadowdb-client`\n": client.RegisterFlags,
	} {
		_, section, ok := strings.Cut(string(readme), heading)
		if !ok {
			t.Fatalf("README.md has no %q section", strings.TrimSpace(heading))
		}
		section, _, _ = strings.Cut(section, "\n#")
		rows := make(map[string]string) // flag name → documented default
		for _, m := range regexp.MustCompile("(?m)^\\| (`-[^|]*) \\|.*\\| ([^|]*) \\|$").FindAllStringSubmatch(section, -1) {
			names, defaults := strings.Split(m[1], " / "), strings.Split(m[2], " / ")
			if len(names) != len(defaults) {
				t.Errorf("README row %q lists %d flags and %d defaults", m[1], len(names), len(defaults))
				continue
			}
			for i, name := range names {
				def, _, _ := strings.Cut(defaults[i], " (")
				rows[strings.Trim(name, "`-")] = strings.Trim(strings.Replace(def, "—", "", 1), "`")
			}
		}
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		register(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if def, ok := rows[f.Name]; !ok {
				t.Errorf("flag -%s has no row in README's %s table", f.Name, strings.TrimSpace(heading))
			} else if def != f.DefValue {
				t.Errorf("flag -%s defaults to %q, README's %s table says %q", f.Name, f.DefValue, strings.TrimSpace(heading), def)
			}
			delete(rows, f.Name)
		})
		for name := range rows {
			t.Errorf("README's %s table lists -%s, which the binary does not register", strings.TrimSpace(heading), name)
		}
	}
}

// TestConfigFieldsAreSet keeps every setting something runs: each
// exported field of an exported struct type under internal/ whose name
// ends in "Config" must be set at least once in a non-test file outside
// examples/ (benchmark/ counts) — as a key of a composite literal of
// that type, or as the target of an assignment x.Field = …. A field only
// tests set configures code no deployment, harness or experiment runs.
// go/ast only, so an assignment counts for every config field of its name.
func TestConfigFieldsAreSet(t *testing.T) {
	type field struct{ typ, name string } // typ is "<import path>.<Type>"
	declared := make(map[field]string)    // → declaration site
	keyed := make(map[field]bool)
	assigned := make(map[string]bool) // field names assigned through x.Name = …
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "examples") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		pkgPath := "shadowdb/" + path
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				imports := make(map[string]string) // local name → import path
				for _, is := range f.Imports {
					p, _ := strconv.Unquote(is.Path.Value)
					name := p[strings.LastIndex(p, "/")+1:]
					if is.Name != nil {
						name = is.Name.Name
					}
					imports[name] = p
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.TypeSpec:
						st, ok := x.Type.(*ast.StructType)
						if !ok || !strings.HasPrefix(path, "internal/") || !x.Name.IsExported() || !strings.HasSuffix(x.Name.Name, "Config") {
							break
						}
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if id.IsExported() {
									declared[field{pkgPath + "." + x.Name.Name, id.Name}] = fset.Position(id.Pos()).String()
								}
							}
						}
					case *ast.CompositeLit:
						typ := ""
						switch tx := x.Type.(type) {
						case *ast.Ident:
							typ = pkgPath + "." + tx.Name
						case *ast.SelectorExpr:
							if id, ok := tx.X.(*ast.Ident); ok {
								typ = imports[id.Name] + "." + tx.Sel.Name
							}
						}
						for _, e := range x.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.Ident); ok {
									keyed[field{typ, k.Name}] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								assigned[sel.Sel.Name] = true
							}
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	for f, site := range declared {
		if !keyed[f] && !assigned[f.name] {
			unset = append(unset, site+": "+f.typ[strings.LastIndex(f.typ, "/")+1:]+"."+f.name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test code outside examples/; delete it or make it a constant", u)
	}
}

// stringConsts maps the package's string constants to their values.
func stringConsts(pkg *ast.Package) map[string]string {
	consts := make(map[string]string)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							consts[name.Name], _ = strconv.Unquote(lit.Value)
						}
					}
				}
			}
		}
	}
	return consts
}

// isSel reports whether e is the qualified identifier pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
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
