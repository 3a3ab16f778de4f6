package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGoldenOutput runs the report at its default settings and with a
// calibrated reset value, and diffs each against its golden file.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"budget", []string{"-budget", "0.05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, tc.args); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), got.Bytes())
		})
	}
}
