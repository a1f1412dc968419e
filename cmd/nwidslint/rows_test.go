package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nwids/internal/lint/rules"
)

// TestSurfaceHasRows keeps DESIGN.md's surface tables in step with the
// tree: every binary under cmd/ has a row in the *Surface* table and every
// analyzer in rules.All() a row in the *Lint rules* table, each naming
// what needs it, and neither table lists a binary or rule that is gone.
func TestSurfaceHasRows(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cmd", func(t *testing.T) {
		entries, err := os.ReadDir("..")
		if err != nil {
			t.Fatal(err)
		}
		var have []string
		for _, e := range entries {
			if e.IsDir() {
				have = append(have, "cmd/"+e.Name())
			}
		}
		checkRows(t, have, tableRows(t, string(doc), "### Surface"))
	})
	t.Run("rules", func(t *testing.T) {
		var have []string
		for _, a := range rules.All() {
			have = append(have, a.Name)
		}
		checkRows(t, have, tableRows(t, string(doc), "### Lint rules"))
	})
}

// checkRows reports every name in have without a row and every row whose
// name is not in have.
func checkRows(t *testing.T, have []string, rows map[string]bool) {
	t.Helper()
	exists := map[string]bool{}
	for _, name := range have {
		exists[name] = true
		if !rows[name] {
			t.Errorf("%s has no row in DESIGN.md", name)
		}
	}
	var listed []string
	for name := range rows {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	for _, name := range listed {
		if !exists[name] {
			t.Errorf("DESIGN.md has a row for %s, which is gone", name)
		}
	}
}

// tableRows returns the first backquoted name of each row of the table
// under heading in doc. The table ends at the next heading.
func tableRows(t *testing.T, doc, heading string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	code := regexp.MustCompile("^\\| `([A-Za-z0-9_/.]+)`")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if m := code.FindStringSubmatch(line); m != nil {
			rows[m[1]] = true
		}
	}
	if len(rows) == 0 {
		t.Fatalf("DESIGN.md: the %q table has no rows", heading)
	}
	return rows
}
