package main

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestReferenceOutput runs the whole experiment suite at the archived sizes
// (-exp all -packets 10000 -requests 20000) and diffs it against
// docs_output_reference.txt: every experiment is deterministic, so any
// difference is a behaviour change. It runs once at the default GOMAXPROCS
// and once at 1, which flips integration's per-core fan-out
// (Options.Parallelism follows GOMAXPROCS) without moving a byte.
func TestReferenceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	want, err := os.ReadFile("../../docs_output_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, 1} {
		if procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		}
		var got bytes.Buffer
		if err := runExperiments(&got, "all", 10000, 20000, nil); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", runtime.GOMAXPROCS(0), err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("GOMAXPROCS=%d: output differs from docs_output_reference.txt first at line %d:\ngot  %q\nwant %q",
					runtime.GOMAXPROCS(0), i+1, line(gl, i), line(wl, i))
				break
			}
		}
	}
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
