package dws_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"dws/internal/bench"
)

// TestDocsNameWhatExists: the documents a reader follows may name a
// binary only while its cmd/ directory exists, and an -exp argument only
// while it is a row of bench.Experiments (or "all").
func TestDocsNameWhatExists(t *testing.T) {
	cmdRef := regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)
	expRef := regexp.MustCompile(`-exp[ =]([a-z][a-z0-9]*(?:\|[a-z][a-z0-9]*)*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			if fi, err := os.Stat("cmd/" + string(m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, m := range expRef.FindAllSubmatch(text, -1) {
			for _, name := range strings.Split(string(m[1]), "|") {
				if _, err := bench.Select(name); err != nil {
					t.Errorf("%s names -exp %s: %v", doc, name, err)
				}
			}
		}
	}
}
