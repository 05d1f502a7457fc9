// Command docscheck is the documentation gate behind `make docs-check`:
// it fails the build when the docs drift from the code.
//
// Three checks run:
//
//   - Package comments: every package under internal/ (and the root
//     package) must carry a Go package comment — the godoc contract
//     this repo maintains per package in doc.go files.
//   - Markdown links: every relative link target in the given markdown
//     files must exist on disk, so README/ARCHITECTURE/ROADMAP cannot
//     reference files that were renamed or deleted. External http(s)
//     links are not fetched (CI must not depend on the network).
//   - Identifiers: every backticked Go identifier in README.md and
//     ARCHITECTURE.md (`name` or `name()`) must appear as a whole word
//     in some .go file, so the docs cannot keep a name the code renamed.
//
// Usage:
//
//	docscheck [-root .] [markdown files...]
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	fail := false
	report := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		fail = true
	}

	checkPackageComments(*root, report)
	for _, md := range flag.Args() {
		checkMarkdownLinks(*root, md, report)
	}
	checkIdentifiers(*root, report)
	if fail {
		os.Exit(1)
	}
	fmt.Printf("docscheck: package comments, markdown links and identifiers OK\n")
}

// checkPackageComments walks internal/ and the repo root and requires a
// package comment in every non-test package.
func checkPackageComments(root string, report func(string, ...any)) {
	var dirs []string
	dirs = append(dirs, root)
	internal := filepath.Join(root, "internal")
	entries, err := os.ReadDir(internal)
	if err != nil {
		report("docscheck: reading %s: %v", internal, err)
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(internal, e.Name()))
		}
	}
	for _, dir := range dirs {
		if !hasPackageComment(dir, report) {
			report("docscheck: package in %s has no package comment (add a doc.go)", dir)
		}
	}
}

// hasPackageComment reports whether any non-test Go file in dir carries
// a package comment.
func hasPackageComment(dir string, report func(string, ...any)) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return true // not a Go package directory
	}
	fset := token.NewFileSet()
	sawGo := false
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		sawGo = true
		parsed, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			report("docscheck: parsing %s: %v", f, err)
			continue
		}
		if parsed.Doc != nil && strings.TrimSpace(parsed.Doc.Text()) != "" {
			return true
		}
	}
	return !sawGo
}

// mdLink matches inline markdown link targets: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies every relative link in md resolves to an
// existing file or directory under root.
func checkMarkdownLinks(root, md string, report func(string, ...any)) {
	data, err := os.ReadFile(filepath.Join(root, md))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		target = strings.SplitN(target, "#", 2)[0]
		if target == "" {
			continue
		}
		resolved := filepath.Join(root, filepath.Dir(md), target)
		if _, err := os.Stat(resolved); err != nil {
			report("docscheck: %s links to %q which does not exist", md, m[1])
		}
	}
}

var (
	goWord  = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	mdIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)(?:\\(\\))?`")
	// Two Makefile variables, and the method mac.Counters replaced.
	identAllow = map[string]bool{"FUZZERS": true, "TEST_TIMEOUT": true, "MacDropped": true}
)

// checkIdentifiers reports every backticked identifier in README.md and
// ARCHITECTURE.md that is a whole word of no .go file under root (dot
// directories skipped) and is not on identAllow.
func checkIdentifiers(root string, report func(string, ...any)) {
	words := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, w := range goWord.FindAllString(string(src), -1) {
			words[w] = true
		}
		return err
	})
	if err != nil {
		report("docscheck: %v", err)
	}
	for _, md := range []string{"README.md", "ARCHITECTURE.md"} {
		data, err := os.ReadFile(filepath.Join(root, md))
		if err != nil {
			report("docscheck: %v", err)
		}
		for _, m := range mdIdent.FindAllStringSubmatch(string(data), -1) {
			if !words[m[1]] && !identAllow[m[1]] {
				report("docscheck: %s names `%s`, which no .go file contains", md, m[1])
			}
		}
	}
}
