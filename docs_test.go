package dws_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dws/internal/bench"
)

// TestDocsNameWhatExists: the documents a reader follows may name a
// binary or an example only while its cmd/ or examples/ directory exists,
// a binary's flag only while its cmd/<binary>/main.go declares it, and an
// -exp argument only while it is a row of bench.Experiments (or "all").
func TestDocsNameWhatExists(t *testing.T) {
	expRef := regexp.MustCompile(`-exp[ =]([a-z][a-z0-9]*(?:\|[a-z][a-z0-9]*)*)`)
	declared, err := declaredFlags()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range undeclaredFlags(string(text), declared) {
			t.Errorf("%s %s", doc, msg)
		}
		for _, msg := range missingDirs(string(text)) {
			t.Errorf("%s %s", doc, msg)
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

// dirRef matches a program's directory: cmd/<binary> or examples/<name>.
var dirRef = regexp.MustCompile(`\b(?:cmd|examples)/[a-z][a-z0-9]*`)

// missingDirs returns one message for each cmd/ or examples/ directory
// doc names that does not exist.
func missingDirs(doc string) []string {
	var msgs []string
	for _, dir := range dirRef.FindAllString(doc, -1) {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			msgs = append(msgs, fmt.Sprintf("names %s, which does not exist", dir))
		}
	}
	return msgs
}

// TestMissingDirs: the directory matcher reports a deleted example or
// binary by its path and passes the ones that exist.
func TestMissingDirs(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		report    string // the path the one message names; "" = none
	}{
		{"live binary", "go run ./cmd/dwssim -exp fig4\n", ""},
		{"live example", "go run ./examples/quickstart\n", ""},
		{"deleted example", "go run ./examples/corun  # mix (1,8)\n", "examples/corun"},
		{"deleted binary", "`cmd/dwsbench` prints the table\n", "cmd/dwsbench"},
		{"bare directory", "the examples/ directory holds one program\n", ""},
	} {
		msgs := missingDirs(c.doc)
		switch {
		case c.report == "" && len(msgs) != 0:
			t.Errorf("%s: unexpected %q", c.name, msgs)
		case c.report != "" && (len(msgs) != 1 || !strings.Contains(msgs[0], c.report)):
			t.Errorf("%s: messages %q, want one naming %s", c.name, msgs, c.report)
		}
	}
}

// flagDecl matches one flag declaration in a command's main.go, on the
// flag package or on a FlagSet named fs.
var flagDecl = regexp.MustCompile(`(?:flag|fs)\.(\w+)\("([^"]+)"`)

// declaredFlags reads, for every binary under cmd/, the flag names its
// main.go declares. -h and -help come with the flag package.
func declaredFlags() (map[string]map[string]bool, error) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		return nil, err
	}
	declared := map[string]map[string]bool{}
	for _, d := range dirs {
		src, err := os.ReadFile("cmd/" + d.Name() + "/main.go")
		if err != nil {
			return nil, err
		}
		names := map[string]bool{"h": true, "help": true}
		for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
			if m[1] != "NewFlagSet" {
				names[m[2]] = true
			}
		}
		declared[d.Name()] = names
	}
	return declared, nil
}

// flagRef matches one flag on a command line: -name or --name after a
// blank, up to the value or "=".
var flagRef = regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`)

// undeclaredFlags returns one message for each flag doc passes to a binary
// that the binary does not declare (declared maps a binary to its flag
// names). Lines ending in a backslash continue on the next. A binary's
// flags are the -name tokens after its name, up to the next binary named
// or the first shell separator, comment or closing backtick.
func undeclaredFlags(doc string, declared map[string]map[string]bool) []string {
	var bins []string
	for b := range declared {
		bins = append(bins, regexp.QuoteMeta(b))
	}
	binRef := regexp.MustCompile(`\b(` + strings.Join(bins, "|") + `)\b`)
	var msgs []string
	for _, line := range strings.Split(strings.ReplaceAll(doc, "\\\n", " "), "\n") {
		locs := binRef.FindAllStringSubmatchIndex(line, -1)
		for i, loc := range locs {
			bin, args := line[loc[2]:loc[3]], line[loc[1]:]
			if i+1 < len(locs) {
				args = line[loc[1]:locs[i+1][0]]
			}
			if cut := strings.IndexAny(args, "|;&#`"); cut >= 0 {
				args = args[:cut]
			}
			for _, m := range flagRef.FindAllStringSubmatch(args, -1) {
				if !declared[bin][m[1]] {
					msgs = append(msgs, fmt.Sprintf("names `%s -%s`, which cmd/%s/main.go does not declare", bin, m[1], bin))
				}
			}
		}
	}
	return msgs
}

// TestUndeclaredFlags: the flag matcher reports a deleted flag naming
// binary and flag, follows backslash continuations, and passes live flags,
// other commands' flags and hyphenated prose.
func TestUndeclaredFlags(t *testing.T) {
	declared := map[string]map[string]bool{
		"dwsload":   {"addr": true, "rate": true},
		"dwsrouter": {"shards": true, "spill": true},
		"dwsd":      {"addr": true},
	}
	for _, c := range []struct {
		name, doc string
		report    []string // substrings of the one message expected; nil = none
	}{
		{"live", "dwsload -addr http://localhost:8080 -rate 20\n", nil},
		{"deleted", "dwsload -shards http://a:1,http://b:2 -rate 5\n", []string{"dwsload -shards", "cmd/dwsload/main.go"}},
		{"continued", "/tmp/dwsrouter -spill next \\\n  -replicas 64\n", []string{"dwsrouter -replicas"}},
		{"next binary", "dwsrouter over N dwsd -addr :8081\n", nil},
		{"separator", "go build -o /tmp/dwsd ./cmd/dwsd && go build -o /tmp/x\n", nil},
		{"inline code", "`dwsd -addr :1` answers, unlike -x\n", nil},
		{"prose", "dwsd on a 2-CPU host -- e.g. -1 more\n", nil},
		{"go flags", "go test -run TestX -v ./cmd/dwsload\n", nil},
	} {
		msgs := undeclaredFlags(c.doc, declared)
		if c.report == nil {
			if len(msgs) != 0 {
				t.Errorf("%s: unexpected %q", c.name, msgs)
			}
			continue
		}
		if len(msgs) != 1 {
			t.Errorf("%s: %d messages %q, want 1", c.name, len(msgs), msgs)
			continue
		}
		for _, sub := range c.report {
			if !strings.Contains(msgs[0], sub) {
				t.Errorf("%s: %q does not say %q", c.name, msgs[0], sub)
			}
		}
	}
}

// TestExperimentsDocQuotesCode: EXPERIMENTS.md quotes every row of
// bench.Experiments, run at bench.DefaultOptions (dwssim's defaults), as
// one fenced block holding its text rendering byte for byte. The doc is
// the baseline: a changed digit in the code's output fails here.
func TestExperimentsDocQuotesCode(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var want []rendering
	for _, e := range bench.Experiments {
		tb, err := e.Run(bench.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want = append(want, rendering{e.Name, tb.String()})
	}
	for _, msg := range misquoted(string(doc), want) {
		t.Error(msg)
	}
}

// rendering is one experiment's text rendering (bench.Table.Render).
type rendering struct{ name, text string }

// misquoted returns one message for each rendering doc does not quote
// exactly once as a fenced block, and one for each fenced block titled
// like a table ("== … ==") that no rendering has. A block quotes a
// rendering when it holds that rendering without its trailing blank line;
// blocks are matched to renderings by their first (title) line.
func misquoted(doc string, want []rendering) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```") && in:
			blocks, in = append(blocks, strings.Join(cur, "\n")), false
		case strings.HasPrefix(line, "```"):
			cur, in = nil, true
		case in:
			cur = append(cur, line)
		}
	}

	var msgs []string
	titles := map[string]bool{}
	for _, r := range want {
		text := strings.TrimRight(r.text, "\n")
		title, _, _ := strings.Cut(text, "\n")
		titles[title] = true
		var quotes []string
		for _, b := range blocks {
			if first, _, _ := strings.Cut(b, "\n"); first == title {
				quotes = append(quotes, b)
			}
		}
		regen := "regenerate the block with `go run ./cmd/dwssim -exp " + r.name + "`"
		switch {
		case len(quotes) == 0:
			msgs = append(msgs, fmt.Sprintf("EXPERIMENTS.md has no block for experiment %s (a fenced block beginning %q); %s", r.name, title, regen))
		case len(quotes) > 1:
			msgs = append(msgs, fmt.Sprintf("EXPERIMENTS.md quotes experiment %s %d times; keep one block", r.name, len(quotes)))
		case quotes[0] != text:
			msgs = append(msgs, fmt.Sprintf("EXPERIMENTS.md's block for experiment %s differs from the code's output at %s; %s", r.name, firstDiff(quotes[0], text), regen))
		}
	}
	for _, b := range blocks {
		if first, _, _ := strings.Cut(b, "\n"); strings.HasPrefix(first, "== ") && !titles[first] {
			msgs = append(msgs, fmt.Sprintf("EXPERIMENTS.md quotes %q, which no experiment prints", first))
		}
	}
	return msgs
}

// firstDiff names the first line at which the doc's block and the code's
// rendering differ.
func firstDiff(doc, code string) string {
	d, c := strings.Split(doc, "\n"), strings.Split(code, "\n")
	for i := 0; ; i++ {
		var dl, cl string
		if i < len(d) {
			dl = d[i]
		}
		if i < len(c) {
			cl = c[i]
		}
		if dl != cl || i >= len(d) || i >= len(c) {
			return fmt.Sprintf("line %d: doc %q, code %q", i+1, dl, cl)
		}
	}
}

// TestMisquoted: the gate's matcher reports a drifted digit, a missing
// block, a block quoted twice and a block no experiment prints, each
// naming what it found, so TestExperimentsDocQuotesCode cannot pass
// vacuously.
func TestMisquoted(t *testing.T) {
	tb := &bench.Table{Title: "Fig 9: sample", Header: []string{"x", "y"}, Rows: [][]string{{"1", "2.15x"}}, Notes: []string{"a note"}}
	want := []rendering{{"fig9", tb.String()}}
	quote := "```\n" + strings.TrimRight(tb.String(), "\n") + "\n```\n"
	for _, c := range []struct {
		name, doc string
		report    []string // substrings of the one message expected; nil = none
	}{
		{"quoted", "# doc\n\n```sh\ndwssim -exp fig9\n```\n\n" + quote + "\nprose\n", nil},
		{"drift", strings.Replace(quote, "2.15x", "2.16x", 1), []string{"experiment fig9", "line 4", `"1  2.16x"`, "-exp fig9"}},
		{"missing", "# doc\n", []string{"experiment fig9", "no block", "-exp fig9"}},
		{"twice", quote + quote, []string{"experiment fig9", "2 times"}},
		{"truncated", strings.Replace(quote, "note: a note\n", "", 1), []string{"experiment fig9", "line 5"}},
		{"stale", quote + "```\n== Fig 8: gone ==\n```\n", []string{`"== Fig 8: gone =="`, "no experiment"}},
	} {
		msgs := misquoted(c.doc, want)
		if c.report == nil {
			if len(msgs) != 0 {
				t.Errorf("%s: unexpected %q", c.name, msgs)
			}
			continue
		}
		if len(msgs) != 1 {
			t.Errorf("%s: %d messages %q, want 1", c.name, len(msgs), msgs)
			continue
		}
		for _, sub := range c.report {
			if !strings.Contains(msgs[0], sub) {
				t.Errorf("%s: %q does not say %q", c.name, msgs[0], sub)
			}
		}
	}
}
