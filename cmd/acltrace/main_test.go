package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestGoldenOutput runs each report mode at -packets 3000 and diffs it
// against its golden file: every mode is deterministic, so any difference
// is a behaviour change. -dataplane at the default R prints all-zero
// estimates, so -reset 1000 pins the per-stage figures.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"baseline", []string{"-baseline"}},
		{"dataplane", []string{"-dataplane"}},
		{"dataplane-r1000", []string{"-dataplane", "-reset", "1000"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, append([]string{"-packets", "3000"}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("output differs from %s first at line %d:\ngot  %q\nwant %q",
						path, i+1, line(gl, i), line(wl, i))
				}
			}
		})
	}
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
