// Command repolint enforces the repository's documentation hygiene in
// CI (the docs job in .github/workflows/ci.yml):
//
//   - every exported identifier in every internal/... package carries
//     a doc comment,
//   - every relative link in the repository's Markdown files resolves
//     to an existing file, and
//   - every symbol anchor on a link to a Go file — the
//     `[walScan](../internal/server/wal.go#walScan)` cross-references
//     the persistence spec uses to pin prose to its encoder/decoder —
//     names a declaration (`Ident` or `Type.Method`) that actually
//     exists in that file, so format docs cannot drift from the code
//     silently, and
//   - the metric catalog in docs/observability.md matches the Metric*
//     constants of internal/obs exactly, in both directions — every
//     registered series is documented and every documented name is
//     registered, and
//   - every test, fuzz target or benchmark a Markdown file names in
//     backticks (`TestRecoveryMatrix`) is a func in some _test.go
//     file, so the invariant lists that cite their tests cannot keep
//     citing a renamed or deleted one. At the repository root only
//     README.md and ARCHITECTURE.md are checked: the other root files
//     hold plans, history and quotations from other projects.
//
// Usage:
//
//	repolint [-root .]
//
// It prints one finding per line and exits non-zero when any exist.
// gofmt and go vet cover formatting and correctness; repolint covers
// only what they do not.
package main

import (
	"flag"
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
)

// docPackages returns every internal/... package directory: all of
// them are programmed against by at least the simulators and the
// binaries, so all of them carry the full-doc-comment requirement.
func docPackages(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return nil, fmt.Errorf("repolint: listing internal packages: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("internal", e.Name()))
		}
	}
	return dirs, nil
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	pkgs, err := docPackages(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var findings []string
	for _, dir := range pkgs {
		f, err := lintDocs(filepath.Join(*root, dir))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	mdFindings, err := lintMarkdownLinks(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings = append(findings, mdFindings...)
	metricFindings, err := lintMetricsCatalog(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings = append(findings, metricFindings...)
	testFindings, err := lintCitedTests(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	findings = append(findings, testFindings...)

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// receiverExported reports whether a method receiver names an
// exported type (unwrapping pointers and generic instantiations).
func receiverExported(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // unrecognized shape: keep the finding
		}
	}
}

// lintDocs reports exported package-level identifiers (functions,
// methods, types, consts, vars) that carry no doc comment. A grouped
// const/var/type declaration's comment covers its specs, matching the
// usual godoc convention.
func lintDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("repolint: parsing %s: %w", dir, err)
	}
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
							// Methods on unexported receiver types are
							// not part of the package's godoc surface
							// (e.g. heap.Interface plumbing on an
							// internal queue type); skip them.
							if !receiverExported(d.Recv) {
								continue
							}
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(name.Pos(), kindOf(d.Tok), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return findings, nil
}

// kindOf names a GenDecl token for a finding.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// mdLink matches inline Markdown links; images and autolinks are out
// of scope.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintMarkdownLinks reports relative links in *.md files that do not
// resolve to an existing file or directory, and symbol anchors on Go
// files that do not name a declaration there.
func lintMarkdownLinks(root string) ([]string, error) {
	var findings []string
	decls := map[string]map[string]bool{} // Go file -> declared names
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				target, frag, _ := strings.Cut(target, "#")
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: broken relative link %q", path, i+1, m[1]))
					continue
				}
				if frag == "" || !strings.HasSuffix(target, ".go") {
					continue
				}
				names, err := goDecls(decls, resolved)
				if err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: cannot parse %q for anchor check: %v", path, i+1, target, err))
					continue
				}
				if !names[frag] {
					findings = append(findings, fmt.Sprintf("%s:%d: link anchor %q names no declaration in %s", path, i+1, frag, target))
				}
			}
		}
		return nil
	})
	return findings, err
}

// goDecls returns (caching per file) the set of names a symbol anchor
// may reference in a Go file: package-level functions, types, consts
// and vars by name, methods as "Type.Method".
func goDecls(cache map[string]map[string]bool, path string) (map[string]bool, error) {
	if names, ok := cache[path]; ok {
		return names, nil
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				if recv := receiverName(d.Recv); recv != "" {
					names[recv+"."+d.Name.Name] = true
				}
				continue
			}
			names[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, name := range s.Names {
						names[name.Name] = true
					}
				}
			}
		}
	}
	cache[path] = names
	return names, nil
}

// metricToken matches a metric family name in the observability doc;
// suffix stripping folds the _bucket/_sum/_count series of one
// histogram back to its family.
var (
	metricToken  = regexp.MustCompile(`\bviewmap_[a-z0-9_]+`)
	metricSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)
)

// lintMetricsCatalog cross-checks the metric catalog in
// docs/observability.md against the Metric* string constants of
// internal/obs, in both directions: a registered metric the doc does
// not mention is an undocumented series, and a documented name the
// registry does not export is catalog drift. Both fail CI — the doc
// is the operator's contract for what /v1/metrics serves.
func lintMetricsCatalog(root string) ([]string, error) {
	registered := map[string]bool{}
	obsDir := filepath.Join(root, "internal", "obs")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, obsDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("repolint: parsing %s: %w", obsDir, err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok || d.Tok != token.CONST {
					continue
				}
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range s.Names {
						if !strings.HasPrefix(name.Name, "Metric") || i >= len(s.Values) {
							continue
						}
						if lit, ok := s.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							registered[strings.Trim(lit.Value, `"`)] = true
						}
					}
				}
			}
		}
	}
	if len(registered) == 0 {
		return []string{fmt.Sprintf("%s: no Metric* string constants found (catalog check has nothing to pin)", obsDir)}, nil
	}

	docPath := filepath.Join(root, "docs", "observability.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: missing (the metric catalog must document internal/obs)", docPath)}, nil
	}
	documented := map[string]bool{}
	for _, tok := range metricToken.FindAllString(string(data), -1) {
		documented[metricSuffix.ReplaceAllString(tok, "")] = true
	}

	var findings []string
	for name := range registered {
		if !documented[name] {
			findings = append(findings, fmt.Sprintf("%s: registered metric %q is not documented", docPath, name))
		}
	}
	for name := range documented {
		if !registered[name] {
			findings = append(findings, fmt.Sprintf("%s: documented metric %q is not registered in internal/obs", docPath, name))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// citedTest matches a test, fuzz target or benchmark named in
// backticks, alone or with a subtest path (`TestRecoveryMatrix/abort`).
var citedTest = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(?:/[^`]*)?`")

// citingRootDocs are the root Markdown files that describe the code as
// it is; the other root files may name tests that no longer exist.
var citingRootDocs = map[string]bool{"README.md": true, "ARCHITECTURE.md": true}

// lintCitedTests reports backticked test names in Markdown files that
// name no top-level func of any _test.go file under root.
func lintCitedTests(root string) ([]string, error) {
	defined := map[string]bool{}
	type citation struct {
		where, name string
	}
	var cited []citation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(d.Name(), "_test.go"):
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return fmt.Errorf("repolint: parsing %s: %w", path, err)
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					defined[fn.Name.Name] = true
				}
			}
		case strings.HasSuffix(d.Name(), ".md"):
			if rel, _ := filepath.Rel(root, path); filepath.Dir(rel) == "." && !citingRootDocs[rel] {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range citedTest.FindAllStringSubmatch(line, -1) {
					cited = append(cited, citation{fmt.Sprintf("%s:%d", path, i+1), m[1]})
				}
			}
		}
		return nil
	})
	var findings []string
	for _, c := range cited {
		if !defined[c.name] {
			findings = append(findings, fmt.Sprintf("%s: cites %s, which no _test.go file defines", c.where, c.name))
		}
	}
	return findings, err
}

// receiverName unwraps a method receiver to its type name.
func receiverName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
