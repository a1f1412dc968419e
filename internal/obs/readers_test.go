package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// readersHeading opens DESIGN.md's table of obs exports and their readers.
const readersHeading = "### `obs` exports and their readers"

// TestExportsHaveReaders keeps DESIGN.md's reader table and the package's
// API in step: every exported name in the non-test files (package-level
// declarations, methods, and the exported fields and interface methods of
// exported types) must be listed in the table, and every name the table
// lists must exist. A row's first cell starts with the name (`Type` or
// `Type.Method`); a type's fields and interface methods follow it in the
// same cell as further backquoted names.
func TestExportsHaveReaders(t *testing.T) {
	exported := exportedNames(t, ".")
	listed := readerTable(t, "../../DESIGN.md")
	for _, name := range sortedKeys(exported) {
		if !listed[name] {
			t.Errorf("%s is exported but has no row in DESIGN.md's reader table", name)
		}
	}
	for _, name := range sortedKeys(listed) {
		if !exported[name] {
			t.Errorf("DESIGN.md's reader table lists %s, which obs does not export", name)
		}
	}
}

// exportedNames parses the non-test Go files in dir and returns every
// exported name, qualified by its type where it has one.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						names[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						names[id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									names[id.Name] = true
								}
							}
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							names[s.Name.Name] = true
							var members *ast.FieldList
							switch ty := s.Type.(type) {
							case *ast.StructType:
								members = ty.Fields
							case *ast.InterfaceType:
								members = ty.Methods
							}
							if members == nil {
								continue
							}
							for _, f := range members.List {
								for _, id := range f.Names {
									if id.IsExported() {
										names[s.Name.Name+"."+id.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// readerTable returns the names listed in the first cell of each row of
// the reader table in the Markdown file at path.
func readerTable(t *testing.T, path string) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), readersHeading+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", path, readersHeading)
	}
	code := regexp.MustCompile("`([A-Za-z0-9_.]+)`")
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		var row string
		for _, m := range code.FindAllStringSubmatch(cell, -1) {
			if row == "" {
				row = m[1]
				listed[row] = true
			} else {
				listed[row+"."+m[1]] = true
			}
		}
	}
	if len(listed) == 0 {
		t.Fatalf("%s: the %q table has no rows", path, readersHeading)
	}
	return listed
}
