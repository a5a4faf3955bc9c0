package parimg_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// godocPackages are the packages whose exported identifiers must all carry
// doc comments — the public API and the packages this PR series owns the
// documentation bar for.
var godocPackages = []string{".", "internal/par", "internal/obs", "internal/cli", "internal/serve", "internal/stream"}

// TestGodocCoverage fails on any exported top-level identifier — function,
// method on an exported type, type, constant or variable — that has no doc
// comment. A doc comment on a grouped const/var/type block covers the whole
// block. This is the CI gate behind the godoc satellite: undocumented
// exports cannot land.
func TestGodocCoverage(t *testing.T) {
	var missing []string
	fset := token.NewFileSet()
	for _, dir := range godocPackages {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					missing = append(missing, undocumented(fset, decl)...)
				}
			}
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented export: %s", m)
	}
}

// undocumented returns the exported, doc-comment-free identifiers of one
// top-level declaration, as "file:line name" strings.
func undocumented(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	at := func(pos token.Pos, name string) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d %s", p.Filename, p.Line, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return nil
		}
		if d.Doc == nil {
			name := d.Name.Name
			if r := receiverName(d); r != "" {
				name = r + "." + name
			}
			out = append(out, at(d.Pos(), name))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, at(s.Pos(), s.Name.Name))
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						out = append(out, at(n.Pos(), n.Name))
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the bare type name of a method receiver, "" for
// plain functions.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	for {
		switch u := typ.(type) {
		case *ast.StarExpr:
			typ = u.X
		case *ast.IndexExpr:
			typ = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// receiverExported reports whether d is a plain function or a method on an
// exported type; methods on unexported types need no doc comments.
func receiverExported(d *ast.FuncDecl) bool {
	name := receiverName(d)
	return name == "" || ast.IsExported(name)
}

// publicAPI is the root package's exported functions and methods: one
// entry point per operation. A name added here needs a reason no existing
// entry point covers — a panicking, …Err or …Context twin of an existing
// call is not one.
var publicAPI = []string{
	"AllPatterns", "Census", "ClassifyObjects", "DARPAImage", "Equalize",
	"GeneratePattern", "HistogramParallel", "HistogramSequential",
	"LabelParallel", "LabelSequential", "MachineByName", "Machines",
	"NewImage", "NewLabels", "NewMetricsRecorder", "NewParallelEngine",
	"NewSimulator", "OtsuThreshold", "RandomBinary", "RandomGrey", "ReadPGM",
	"Simulator.Census", "Simulator.Close", "Simulator.Equalize",
	"Simulator.Histogram", "Simulator.Label", "Simulator.LabelByPointerJumping",
	"Simulator.LabelByPropagation", "Simulator.Observer", "Simulator.P",
	"Simulator.SetObserver", "Simulator.SetWatchdog", "Threshold", "WritePGM",
}

// TestPublicAPISurface pins the root package's exported functions and
// methods to publicAPI, so a second spelling of an operation cannot land
// unnoticed.
func TestPublicAPISurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() || !receiverExported(d) {
					continue
				}
				name := d.Name.Name
				if r := receiverName(d); r != "" {
					name = r + "." + name
				}
				got = append(got, name)
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(publicAPI, "\n") {
		t.Errorf("exported functions and methods (%d):\n%s\nwant (%d):\n%s",
			len(got), strings.Join(got, "\n"), len(publicAPI), strings.Join(publicAPI, "\n"))
	}
}

// TestMarkdownLinks checks every relative link target in the repo's main
// documents: the file a link names must exist. External http(s) links and
// same-document anchors are not fetched.
func TestMarkdownLinks(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range link.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			path, _, _ := strings.Cut(target, "#")
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s links to missing file %q", doc, target)
			}
		}
	}
}

// TestExperimentsPhasereportSection pins that the committed EXPERIMENTS.md
// still contains a generated phasereport section covering every catalog
// pattern plus the DARPA scene — the tables go stale silently otherwise.
func TestExperimentsPhasereportSection(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	b := strings.Index(text, "<!-- phasereport:begin -->")
	e := strings.Index(text, "<!-- phasereport:end -->")
	if b < 0 || e < 0 || e < b {
		t.Fatal("EXPERIMENTS.md lost its phasereport markers")
	}
	section := text[b:e]
	for _, want := range []string{
		"horizontal-bars", "vertical-bars", "forward-diagonal-bars",
		"back-diagonal-bars", "cross", "filled-disc", "concentric-circles",
		"four-squares", "dual-spiral", "darpa",
		"Modeled", "Measured", "strip label", "relabel",
	} {
		if !strings.Contains(section, want) {
			t.Errorf("phasereport section is missing %q; rerun make experiments", want)
		}
	}
}
