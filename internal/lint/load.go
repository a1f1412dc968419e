package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path (module-relative in module mode,
	// directory-relative in fixture mode).
	Path string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// BaseDir is the load root; finding positions are reported relative
	// to it.
	BaseDir string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Loader parses and type-checks packages without the go tool. Packages
// inside the load root are type-checked from source; everything else
// (the standard library) is delegated to go/importer's source importer,
// keeping the whole pipeline dependency-free.
//
// Two layouts are supported:
//
//   - module mode (NewModuleLoader): the root holds a go.mod and import
//     paths below the module path resolve to subdirectories, exactly as
//     the go tool would resolve them;
//   - fixture mode (NewFixtureLoader): GOPATH-style, any import path
//     resolves to root/<path> when that directory exists. Golden test
//     fixtures under testdata/src use this so they can fake module
//     packages (e.g. a stub nwids/internal/metrics) without building the
//     real module.
type Loader struct {
	Fset *token.FileSet

	root         string // absolute load root
	modulePath   string // "" in fixture mode
	includeTests bool

	pkgs    map[string]*Package // by import path, nil while loading (cycle marker)
	loading map[string]bool
	stdlib  types.Importer
}

// NewModuleLoader returns a loader rooted at the module directory root,
// which must contain a go.mod. includeTests controls whether _test.go
// files in the package (not external _test packages) are loaded too.
func NewModuleLoader(root string, includeTests bool) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return newLoader(abs, modPath, includeTests), nil
}

// NewFixtureLoader returns a GOPATH-style loader rooted at srcRoot: the
// import path a/b resolves to srcRoot/a/b.
func NewFixtureLoader(srcRoot string) (*Loader, error) {
	abs, err := filepath.Abs(srcRoot)
	if err != nil {
		return nil, err
	}
	return newLoader(abs, "", true), nil
}

func newLoader(root, modPath string, includeTests bool) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:         fset,
		root:         root,
		modulePath:   modPath,
		includeTests: includeTests,
		pkgs:         make(map[string]*Package),
		loading:      make(map[string]bool),
		stdlib:       importer.ForCompiler(fset, "source", nil),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Load resolves the given patterns and returns the matched packages,
// type-checked, in deterministic (import path) order. Patterns are
// directory-relative to the load root: "./..." walks everything, "dir/..."
// walks a subtree, anything else names a single package directory.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			dirs, err := packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				dirSet[d] = true
			}
		} else {
			dirSet[filepath.Join(l.root, filepath.FromSlash(pat))] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var out []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// packageDirs walks base collecting directories that contain .go files,
// skipping testdata, vendor, hidden and underscore-prefixed directories.
func packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// dedupe (one entry per .go file above)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// importPathFor maps an absolute package directory back to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside the load root %s", dir, l.root)
	}
	rel = filepath.ToSlash(rel)
	if l.modulePath == "" {
		return rel, nil
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + rel, nil
}

// dirFor resolves an import path to a local directory, or ok=false when
// the path is not provided by the load root (i.e. it is a stdlib import).
func (l *Loader) dirFor(path string) (string, bool) {
	var rel string
	if l.modulePath != "" {
		switch {
		case path == l.modulePath:
			rel = "."
		case strings.HasPrefix(path, l.modulePath+"/"):
			rel = strings.TrimPrefix(path, l.modulePath+"/")
		default:
			return "", false
		}
	} else {
		rel = path
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// Import implements types.Importer so that a package under analysis can
// resolve imports of sibling packages through the same loader; all other
// paths fall through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go source in %s", path)
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

// loadPath parses and type-checks one local package (memoized). It returns
// (nil, nil) for a directory with no buildable Go files.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %s", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	pkg := &Package{
		Path:    path,
		Dir:     dir,
		BaseDir: l.root,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the package's .go files in sorted filename order. Only
// files belonging to the primary (non-_test-suffixed) package are kept:
// external foo_test packages would need a second type-check universe.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	var pkgName string
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// Keep only the primary package: skip external test packages and
		// ignored main files living alongside (none in this repo today).
		if pkgName == "" {
			pkgName = strings.TrimSuffix(f.Name.Name, "_test")
		}
		if f.Name.Name != pkgName && f.Name.Name != pkgName+"_test" {
			continue
		}
		if f.Name.Name == pkgName+"_test" {
			// External test package files share the directory but not the
			// package; analyzing them needs a separate universe. Skip.
			continue
		}
		files = append(files, f)
	}
	return files, nil
}
