package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckIdentifiers runs the identifier check on a fixture tree: a
// backticked name passes when some .go file outside a dot directory
// holds it as a whole word, or when it is on the allowlist.
func TestCheckIdentifiers(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a.go", "package pkg\n\n// WeakN counts.\nfunc NextPktSeq() {}\n")
	write(".cache/b.go", "package cache\n\nvar Hidden int\n")
	write("README.md", "`NextPktSeq()` and `WeakN`, `go test ./...`, `FUZZERS`, `MacDropped()`.\n")
	write("ARCHITECTURE.md", "`weakN` is stale, `NextPkt` is a part of a word, `Hidden` is only in a dot directory, `a.b` is no identifier.\n")

	var got []string
	checkIdentifiers(root, func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	want := []string{
		"docscheck: ARCHITECTURE.md names `weakN`, which no .go file contains",
		"docscheck: ARCHITECTURE.md names `NextPkt`, which no .go file contains",
		"docscheck: ARCHITECTURE.md names `Hidden`, which no .go file contains",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reports:\n%q\nwant:\n%q", got, want)
	}
}
