package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated tables from this run")

// docBlock matches one generated table in EXPERIMENTS.md: an
// experiment's rendered output, fenced, between its markers.
var docBlock = regexp.MustCompile("(?s)<!-- ftmmbench (\\S+) -->\n(.*?)<!-- /ftmmbench -->")

// fenced is how a rendered table sits in the document: a text fence,
// cell padding at line ends trimmed.
func fenced(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return "```text\n" + strings.Join(lines, "\n") + "\n```\n"
}

// TestExperimentsDoc holds EXPERIMENTS.md to what ftmmbench prints: every
// registered experiment has exactly one generated block, and each block
// is that experiment's output under ftmmbench's default options. With
// -update it rewrites the blocks instead:
//
//	go test ./internal/experiments -run TestExperimentsDoc -update
func TestExperimentsDoc(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, r := range RunAll(DefaultOptions(), 0) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		want[r.Name] = fenced(r.Output.Text)
	}
	seen := map[string]int{}
	out := docBlock.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := docBlock.FindStringSubmatch(block)
		name, got := m[1], m[2]
		seen[name]++
		text, ok := want[name]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md has a block for %q, which is no experiment", name)
		case got != text && !*update:
			t.Errorf("EXPERIMENTS.md's %s table differs from what ftmmbench prints (-update rewrites it)\n--- EXPERIMENTS.md\n%s--- ftmmbench %s\n%s",
				name, got, name, text)
		case got != text:
			return "<!-- ftmmbench " + name + " -->\n" + text + "<!-- /ftmmbench -->"
		}
		return block
	})
	for _, e := range All() {
		if seen[e.Name] != 1 {
			t.Errorf("EXPERIMENTS.md has %d generated blocks for %s, want 1", seen[e.Name], e.Name)
		}
	}
	if *update && out != string(doc) {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
