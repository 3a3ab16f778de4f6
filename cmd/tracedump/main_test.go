package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// fixtures holds the golden trace files the trace package generates.
const fixtures = "../../internal/trace/testdata"

// TestGoldenOutput runs each report mode over the trace fixtures and
// diffs it against its golden file. Files a mode writes are appended to
// its output, each under a "== name" line, with the directory they were
// written to printed as OUT.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		files []string // written under the output directory
	}{
		{"profile", []string{"-profile", "-functions", "clean.fltrc"}, nil},
		{"gaps", []string{"-gaps", "-items", "4", "loss10.fltrc"}, nil},
		{"merged", []string{"-items", "2", "-functions", "clean.fltrc", "loss10.fltrc"}, nil},
		{"faults-verdicts", []string{"-faults", "seed=7,loss=0.1,burst=32,mdrop=0.02", "-verdicts", "-items", "4", "markerdrop.fltrc"}, nil},
		{"csv", []string{"-items", "0", "-csv", "OUT/md", "markerdrop.fltrc"}, []string{"md-markers.csv", "md-samples.csv"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				switch {
				case strings.HasSuffix(a, ".fltrc"):
					a = filepath.Join(fixtures, a)
				case strings.HasPrefix(a, "OUT/"):
					a = filepath.Join(out, a[len("OUT/"):])
				}
				args[i] = a
			}
			var got bytes.Buffer
			if err := run(&got, args); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.files {
				b, err := os.ReadFile(filepath.Join(out, name))
				if err != nil {
					t.Fatal(err)
				}
				got.WriteString("\n== " + name + "\n")
				got.Write(b)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"),
				bytes.ReplaceAll(got.Bytes(), []byte(out), []byte("OUT")))
		})
	}
}
