package benchutil

import (
	"regexp"
	"testing"
)

// TestRegistry: names are unique letters and digits, so
// -bench 'Substrate/^<Name>$' selects exactly one entry, and only the
// three paper-resolution trackers set MinIters.
func TestRegistry(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9]+$`)
	paper := map[string]bool{"AnalyzePaperResolution": true, "FactorizePaperResolution": true, "SolvePaperResolution": true}
	seen := map[string]bool{}
	for _, e := range Benches {
		if !valid.MatchString(e.Name) || seen[e.Name] || e.Run == nil {
			t.Errorf("entry %q: want a unique [A-Za-z0-9]+ name and a body", e.Name)
		}
		seen[e.Name] = true
		if (e.MinIters > 0) != paper[e.Name] {
			t.Errorf("%s: MinIters = %d; only the paper-resolution trackers set it", e.Name, e.MinIters)
		}
		delete(paper, e.Name)
	}
	if len(paper) > 0 {
		t.Errorf("paper-resolution trackers %v are not registered", paper)
	}
}
