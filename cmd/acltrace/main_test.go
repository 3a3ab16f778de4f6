package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

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
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), got.Bytes())
		})
	}
}
