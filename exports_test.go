package malleable_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported identifiers under internal/ that stay
// without a caller in any non-test file of the module or of bench/. A key is
// "pkg.Name" for a package-level identifier and "pkg.Type.Method" for a
// method, where pkg is the directory under internal/. Each entry says why it
// stays; everything else without a caller is deleted. An entry whose
// identifier gains a caller leaves the list.
var exportKeep = map[string]string{
	// Oracles of the property suite that checks every run path against the
	// paper's bounds and the exact optimum.
	"core.MixedLowerBound":        "oracle: Lemma 1's mixed lower bound",
	"core.WDEQApproximationRatio": "oracle: Theorem 4's ratio against a reference objective",
	"core.WeightedCompletionOf":   "oracle: the objective of given completion times",
	"exact.BranchAndBound":        "oracle: the exact optimum by branch and bound",

	// Checkers: the verdicts of the paper's experiments, which the tests
	// and benchmarks of each experiment assert.
	"experiments.BandwidthResult.EquivalenceHolds":        "verdict of F1",
	"experiments.Conjecture13Result.Holds":                "verdict of E4",
	"experiments.OrderCatalogueResult.Holds":              "verdict of E5",
	"experiments.GreedyDominanceResult.Holds":             "verdict of E8",
	"experiments.GreedyVsOptimalResult.Indistinguishable": "verdict of E1-E3",
	"experiments.WDEQRatioResult.WithinTwo":               "verdict of E7 (Theorem 4)",
	"experiments.PreemptionResult.Theorem9Holds":          "verdict of E6 (Theorem 9)",
	"experiments.SmithRatioResult.WorstRatio":             "verdict of E10",
	"experiments.TableIResult.GuaranteesRespected":        "verdict of E9 (Table I)",

	// Public API: library users reach these through a facade alias
	// (malleable.Instance, Schedule, ProcessorSchedule, QuantileSink).
	"schedule.Instance.TotalWeight":               "facade: malleable.Instance",
	"schedule.Instance.MaxHeight":                 "facade: malleable.Instance",
	"schedule.Instance.IsHomogeneousWeights":      "facade: malleable.Instance",
	"schedule.Instance.IsLargeDeltaClass":         "facade: malleable.Instance",
	"schedule.ColumnSchedule.MaxLateness":         "facade: malleable.Schedule",
	"schedule.ColumnSchedule.AllocationProfile":   "facade: malleable.Schedule",
	"schedule.ColumnSchedule.UsageProfile":        "facade: malleable.Schedule",
	"schedule.ColumnSchedule.WriteCSV":            "facade: malleable.Schedule",
	"schedule.ProcessorAssignment.MaxConcurrency": "facade: malleable.ProcessorSchedule",
	"stats.QuantileSketch.Collapsed":              "facade: malleable.QuantileSink's Sketch",

	// Contract markers: they declare that a policy reads volumes, and the
	// non-clairvoyance invariant test asserts which policies carry them.
	"engine.Clairvoyant":                  "contract marker of policies that read volumes",
	"engine.SmithRatioPolicy.Clairvoyant": "the marker on the one clairvoyant policy",
}

// exportMethodKeep lists method names that implement an interface of the
// standard library, whose callers live outside the scanned source.
var exportMethodKeep = map[string]string{
	"Len":           "sort.Interface",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
}

// exportDecl is one exported identifier declared under internal/.
type exportDecl struct {
	key string // pkg.Name or pkg.Type.Method
	pos token.Position
	// method is the method name, or "" for a package-level identifier.
	method string
}

// exportScan is the parse-only index of the source tree: what internal/
// declares, and the uses the non-test files make of it.
type exportScan struct {
	module string
	decls  []exportDecl
	// pkgUses counts "path.Name" uses of package-level identifiers: a
	// pkg.Name selector from another package, or a bare identifier inside
	// the declaring package outside the identifier's own declaration.
	pkgUses map[string]int
	// methodUses counts x.Name selectors whose x is not an imported
	// package, by Name: a parse-only scan cannot tell the receiver's type.
	methodUses map[string]int
}

// Every exported identifier under internal/ has a caller in a non-test file
// of the module (root, cmd/, examples/, internal/) or of bench/, or is on
// the keep list with its reason. The scan parses source only: a package-level
// identifier is matched by its pkg.Name selector from another package or by
// a bare identifier inside its own package, so big.Rat is not a use of
// numeric.Rat; a method is matched by name on any selector.
func TestInternalExportsHaveCallers(t *testing.T) {
	scan, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	declared, methods := map[string]bool{}, map[string]bool{}
	var unused []string
	for _, d := range scan.decls {
		declared[d.key] = true
		if d.method != "" {
			methods[d.method] = true
		}
		used := scan.used(d)
		_, keep := exportKeep[d.key]
		switch {
		case keep && used:
			t.Errorf("%s: %s has a caller now: drop it from exportKeep", d.pos, d.key)
		case !keep && !used:
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or add it to exportKeep with its reason", u)
	}
	for key := range exportKeep {
		if !declared[key] {
			t.Errorf("exportKeep names %s, which internal/ does not declare", key)
		}
	}
	for name := range exportMethodKeep {
		if !methods[name] {
			t.Errorf("exportMethodKeep names %s, which no method under internal/ is named", name)
		}
	}
}

// TestExportScanRules runs the scan on small modules that each plant one
// exported identifier under internal/ and check whether the scan counts the
// code around it as a use.
func TestExportScanRules(t *testing.T) {
	const planted = "package stats\n\nfunc Planted() {}\n"
	const callStats = "import \"example.com/m/internal/stats\"\n\nfunc f() { stats.Planted() }\n"
	cases := []struct {
		name  string
		files map[string]string
		key   string
		used  bool
	}{
		{"no-caller", map[string]string{
			"internal/stats/stats.go": planted,
		}, "stats.Planted", false},
		{"caller-in-bench", map[string]string{
			"internal/stats/stats.go": planted,
			"bench/go.mod":            "module example.com/m/bench\n",
			"bench/bench.go":          "package bench\n\n" + callStats,
		}, "stats.Planted", true},
		{"caller-in-cmd", map[string]string{
			"internal/stats/stats.go": planted,
			"cmd/tool/main.go":        "package main\n\n" + callStats,
		}, "stats.Planted", true},
		{"caller-in-test-file", map[string]string{
			"internal/stats/stats.go":      planted,
			"internal/other/other_test.go": "package other\n\n" + callStats,
		}, "stats.Planted", false},
		{"caller-in-testdata", map[string]string{
			"internal/stats/stats.go":         planted,
			"internal/other/testdata/main.go": "package main\n\n" + callStats,
		}, "stats.Planted", false},
		{"renamed-import", map[string]string{
			"internal/stats/stats.go": planted,
			"cmd/tool/main.go":        "package main\n\nimport st \"example.com/m/internal/stats\"\n\nfunc f() { st.Planted() }\n",
		}, "stats.Planted", true},
		{"same-name-other-package", map[string]string{
			"internal/numeric/numeric.go": "package numeric\n\ntype Rat struct{}\n",
			"cmd/tool/main.go":            "package main\n\nimport \"math/big\"\n\nvar x big.Rat\n",
		}, "numeric.Rat", false},
		{"bare-ident-in-own-package", map[string]string{
			"internal/stats/stats.go": planted + "\nfunc helper() { Planted() }\n",
		}, "stats.Planted", true},
		{"self-reference", map[string]string{
			"internal/stats/stats.go": "package stats\n\nfunc Planted() { Planted() }\n",
		}, "stats.Planted", false},
		{"method-by-selector", map[string]string{
			"internal/stats/stats.go": "package stats\n\ntype S struct{}\n\nfunc (S) Planted() {}\n",
			"cmd/tool/main.go":        "package main\n\nimport \"example.com/m/internal/stats\"\n\nfunc f() { var s stats.S; s.Planted() }\n",
		}, "stats.S.Planted", true},
		{"receiver-is-not-a-type-use", map[string]string{
			"internal/stats/stats.go": "package stats\n\ntype S struct{}\n\nfunc (S) Planted() S { return S{} }\n",
		}, "stats.S", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			c.files["go.mod"] = "module example.com/m\n"
			for name, src := range c.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			scan, err := scanExports(root)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, d := range scan.decls {
				keys = append(keys, d.key)
				if d.key == c.key {
					if got := scan.used(d); got != c.used {
						t.Errorf("%s used = %v, want %v", c.key, got, c.used)
					}
					return
				}
			}
			t.Errorf("scan declares %v, not %s", keys, c.key)
		})
	}
}

// scanExports parses every non-test Go file under root, skipping testdata and
// hidden directories, and indexes internal/'s exported declarations and
// their uses. bench/ is a nested module whose path extends root's, so one
// directory-to-import-path rule covers both.
func scanExports(root string) (*exportScan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &exportScan{pkgUses: map[string]int{}, methodUses: map[string]int{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			s.module = strings.TrimSpace(m)
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := s.module
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		s.index(fset, f, pkgPath)
		return nil
	})
	return s, err
}

// index records the file's exported declarations, when it lies under
// internal/, and its uses.
func (s *exportScan) index(fset *token.FileSet, f *ast.File, pkgPath string) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path
	}
	pkg, inInternal := strings.CutPrefix(pkgPath, s.module+"/internal/")
	declare := func(id *ast.Ident, recv string) {
		if !inInternal || !id.IsExported() {
			return
		}
		d := exportDecl{key: pkg + "." + id.Name, pos: fset.Position(id.Pos())}
		if recv != "" {
			d.key, d.method = pkg+"."+recv+"."+id.Name, id.Name
		}
		s.decls = append(s.decls, d)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				declare(decl.Name, "")
				s.uses(decl.Type, imports, pkgPath, decl.Name.Name)
				if decl.Body != nil {
					s.uses(decl.Body, imports, pkgPath, decl.Name.Name)
				}
				continue
			}
			// A method's references to its own receiver type are not
			// uses of that type.
			recv := receiverType(decl.Recv.List[0].Type)
			declare(decl.Name, recv)
			s.uses(decl.Type, imports, pkgPath, recv)
			if decl.Body != nil {
				s.uses(decl.Body, imports, pkgPath, recv)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name, "")
					if spec.TypeParams != nil {
						s.uses(spec.TypeParams, imports, pkgPath, spec.Name.Name)
					}
					s.uses(spec.Type, imports, pkgPath, spec.Name.Name)
				case *ast.ValueSpec:
					self := ""
					for _, id := range spec.Names {
						declare(id, "")
					}
					if len(spec.Names) == 1 {
						self = spec.Names[0].Name
					}
					s.uses(spec.Type, imports, pkgPath, self)
					for _, v := range spec.Values {
						s.uses(v, imports, pkgPath, self)
					}
				}
			}
		}
	}
}

// uses records the identifier uses under n, ignoring bare references to
// self, the declaration n belongs to.
func (s *exportScan) uses(n ast.Node, imports map[string]string, pkgPath, self string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					s.pkgUses[path+"."+n.Sel.Name]++
					return false
				}
			}
			s.methodUses[n.Sel.Name]++
			s.uses(n.X, imports, pkgPath, self)
			return false
		case *ast.Ident:
			if n.Name != self {
				s.pkgUses[pkgPath+"."+n.Name]++
			}
		}
		return true
	})
}

// used reports whether the scan found a use of d outside its declaration. A
// method that implements a standard-library interface counts as used.
func (s *exportScan) used(d exportDecl) bool {
	if d.method != "" {
		_, std := exportMethodKeep[d.method]
		return std || s.methodUses[d.method] > 0
	}
	return s.pkgUses[s.module+"/internal/"+d.key] > 0
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
