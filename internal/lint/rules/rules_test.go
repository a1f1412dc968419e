package rules_test

import (
	"path/filepath"
	"strings"
	"testing"

	"nwids/internal/lint/linttest"
	"nwids/internal/lint/rules"
)

// fixtureRoot is the shared golden-fixture tree (ISSUE: fixtures live
// under internal/lint/testdata).
var fixtureRoot = filepath.Join("..", "testdata", "src")

// TestAllRulesAgainstFixtures runs the full suite over the fixture tree:
// every finding must be matched by a // want comment and vice versa, so
// any regression in a rule's detection logic — a missed finding or a new
// false positive — fails this test.
func TestAllRulesAgainstFixtures(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/..."}, rules.All())
}

// Per-rule runs keep failures attributable when several rules fire on the
// same fixture package.
func TestNondeterminismFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/internal/topology"}, rules.ByName("nondeterminism"))
}

func TestFloatCmpFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/internal/lp"}, rules.ByName("floatcmp,nondeterminism"))
}

func TestErrDiscardFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/cmd/tool"}, rules.ByName("errdiscard"))
}

func TestColdSolveFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/internal/experiments"},
		rules.ByName("coldsolve,exprloop,panicsafe,nondeterminism"))
}

func TestClocksafeFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/internal/obs"}, rules.ByName("clocksafe"))
}

func TestHotallocFixture(t *testing.T) {
	linttest.Run(t, fixtureRoot, []string{"fix/internal/nids"}, rules.ByName("hotalloc"))
}

func TestByName(t *testing.T) {
	if got := rules.ByName("floatcmp,panicsafe"); len(got) != 2 {
		t.Fatalf("ByName(floatcmp,panicsafe) = %d analyzers, want 2", len(got))
	}
	if got := rules.ByName("nosuchrule"); got != nil {
		t.Fatalf("ByName(nosuchrule) = %v, want nil", got)
	}
	var names []string
	for _, a := range rules.All() {
		names = append(names, a.Name)
	}
	want := "nondeterminism floatcmp panicsafe errdiscard exprloop coldsolve clocksafe hotalloc"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("All() = %s, want %s", got, want)
	}
}
