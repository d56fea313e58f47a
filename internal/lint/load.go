package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. "repro/internal/sim"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of one module. Module-internal
// imports are resolved recursively from source; standard-library imports go
// through go/importer's "source" compiler so no pre-compiled export data is
// needed. Test files (_test.go) are skipped: the contract governs simulation
// code, and tests may legitimately sleep or read the clock.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string // absolute path of the directory holding go.mod
	modulePath string // module path declared by go.mod

	std  types.Importer
	pkgs map[string]*Package // by import path; nil entry = load in progress
}

// NewLoader returns a loader for the module rooted at moduleRoot (the
// directory containing go.mod). The module path is read from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: abs,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// Packages returns every module-internal package loaded so far — the
// explicitly requested ones plus their transitively imported dependencies —
// sorted by import path. The whole-program analyzers build their call graph
// over this set, so taint can cross package boundaries even when only one
// package was selected.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, pkg := range l.pkgs {
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// readModulePath extracts the module declaration from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Load resolves patterns to packages and type-checks them. A pattern is an
// import path, an import path ending in "/..." (subtree), or "./..."-style
// relative directory patterns resolved against the module root.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns patterns into a sorted list of loadable import paths.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(importPath string) {
		if !seen[importPath] {
			seen[importPath] = true
			out = append(out, importPath)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		subtree := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			subtree, pat = true, rest
		} else if pat == "..." {
			subtree, pat = true, ""
		}
		// Resolve the pattern to a directory under the module root: either
		// it is already an import path inside the module, or a relative dir.
		rel := pat
		if pat == l.modulePath {
			rel = ""
		} else if sub, ok := strings.CutPrefix(pat, l.modulePath+"/"); ok {
			rel = sub
		}
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: no such package directory %s", pat, dir)
		}
		if !subtree {
			add(l.dirImportPath(dir))
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if l.hasGoFiles(p) {
				add(l.dirImportPath(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// dirImportPath maps an absolute directory inside the module to its import
// path.
func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return path.Join(l.modulePath, filepath.ToSlash(rel))
}

// hasGoFiles reports whether dir contains at least one buildable non-test Go
// file for the current platform.
func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := build.Default.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// Import implements types.Importer: module-internal packages are loaded from
// source, everything else is delegated to the standard-library importer.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == l.modulePath || strings.HasPrefix(importPath, l.modulePath+"/") {
		pkg, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(importPath)
}

// load parses and type-checks one module-internal package, memoized.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // mark in progress for cycle detection

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %s: no buildable Go files in %s", importPath, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
