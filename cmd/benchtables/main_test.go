package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current output")

// TestAllGolden pins `benchtables -exp all` byte for byte. The output has
// no wall-clock column — every cell is a count, a fitted growth class or
// a printed automaton — so a diff here is a change in the work the
// engines do or in the automata they run, and the reviewer of that
// change reads it in the golden file's diff. Refresh with
//
//	go test ./cmd/benchtables -run TestAllGolden -update
func TestAllGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-exp", "all"}); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/all.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, e)
		}
	}
	if t.Failed() {
		t.Log("if the change is intended: go test ./cmd/benchtables -run TestAllGolden -update")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(new(bytes.Buffer), []string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(new(bytes.Buffer), []string{"-sizes", "64"}); err == nil {
		t.Fatal("a one-size sweep accepted")
	}
}
