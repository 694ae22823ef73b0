package obs

import (
	"os"
	"strings"
	"testing"
)

// TestEventDocsComplete asserts the generated taxonomy covers every Kind
// exactly once, so adding a Kind without documenting it fails the build.
func TestEventDocsComplete(t *testing.T) {
	seen := make(map[Kind]int)
	for _, d := range EventDocs {
		if len(d.Kinds) == 0 {
			t.Errorf("EventDoc %q has no kinds", d.Emitter)
		}
		for _, k := range d.Kinds {
			seen[k]++
		}
	}
	for k := Kind(1); k < kindCount; k++ {
		if seen[k] != 1 {
			t.Errorf("kind %s appears %d times in EventDocs, want exactly 1", k, seen[k])
		}
	}
	if seen[KUnknown] != 0 {
		t.Errorf("KUnknown must not be documented as an emitted kind")
	}
}

// TestEventNamesDistinct guards the obsnames analyzer's assumption that
// dotted names identify kinds uniquely.
func TestEventNamesDistinct(t *testing.T) {
	names := EventNames()
	seen := make(map[string]bool)
	for _, n := range names {
		if n == "" || n == "unknown" {
			t.Errorf("real kind renders as %q", n)
		}
		if seen[n] {
			t.Errorf("duplicate event name %q", n)
		}
		seen[n] = true
	}
}

func TestKnownMetric(t *testing.T) {
	for _, name := range []string{
		"core.job.attempt.us",
		"core.jobs.outstanding",
		"solver.subsolve.grid(1,2;root=2).us",
	} {
		if !KnownMetric(name) {
			t.Errorf("KnownMetric(%q) = false, want true", name)
		}
	}
	for _, name := range []string{
		"core.job.attempt.usx",
		"solver.subsolve..us", // empty dynamic segment
		"solver.subsolve.us",
		"solver.subsolve.g.cores",
		"linalg.team.imbalance.us",
		"bogus",
		"",
	} {
		if KnownMetric(name) {
			t.Errorf("KnownMetric(%q) = true, want false", name)
		}
	}
	if !KnownMetricParts("solver.subsolve.", ".us") {
		t.Errorf("KnownMetricParts(solver.subsolve., .us) = false, want true")
	}
	if KnownMetricParts("solver.", ".us") {
		t.Errorf("KnownMetricParts(solver., .us) = true, want false")
	}
}

// TestTablesInSync fails when OBSERVABILITY.md's generated tables drift
// from the Go taxonomy — the fix is `go generate ./internal/obs`.
func TestTablesInSync(t *testing.T) {
	data, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading OBSERVABILITY.md: %v", err)
	}
	doc := string(data)
	for _, tc := range []struct {
		name, table string
	}{
		{"events", RenderEventTable()},
		{"metrics", RenderMetricTable()},
	} {
		begin := "<!-- BEGIN GENERATED: " + tc.name + " (go generate ./internal/obs) -->\n"
		end := "<!-- END GENERATED: " + tc.name + " -->"
		i := strings.Index(doc, begin)
		j := strings.Index(doc, end)
		if i < 0 || j < 0 || j < i {
			t.Fatalf("OBSERVABILITY.md is missing the GENERATED markers for %s", tc.name)
		}
		if got := doc[i+len(begin) : j]; got != tc.table {
			t.Errorf("OBSERVABILITY.md %s table is stale; run `go generate ./internal/obs`.\n-- file --\n%s\n-- taxonomy --\n%s", tc.name, got, tc.table)
		}
	}
}
