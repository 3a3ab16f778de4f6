package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/stats"
)

// The machine-readable result: one file per source revision,
// <out>/BENCH_<gitrev>.json, holding for each workload the end-to-end
// block of its latest untraced run and the per-layer block of its latest
// traced run. Every run rewrites its own block; `-compare` reads two such
// files.

type e2eValue struct {
	dist
	Unit string `json:"unit"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta is what identifies one run's inputs and outcome.
type runMeta struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	InputHash string  `json:"input_hash"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
}

type workloadResult struct {
	Untraced *runMeta              `json:"untraced,omitempty"`
	EndToEnd map[string]e2eValue   `json:"end_to_end,omitempty"`
	Traced   *runMeta              `json:"traced,omitempty"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	// BudgetMs is a fleet workload's per-set CPU budget by row, from the
	// traced run; budget.attributed_share is its sum over the measured cost.
	BudgetMs map[string]float64 `json:"budget_ms_per_set,omitempty"`
}

type benchFile struct {
	Schema     int    `json:"schema"`
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Transport and StateFS say what was not measured: the network is
	// loopback TCP and durable state sits on this filesystem, so fsync and
	// wire latency are this box's, not a disk's or a datacentre's.
	Transport string                     `json:"transport"`
	StateFS   string                     `json:"state_fs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// gitRev is the revision the binary was built from, as the go tool
// stamped it; a checkout that is not a git repository has none.
func gitRev() string {
	rev, dirty := "nogit", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value[:min(len(s.Value), 12)]
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func benchPath(outDir string) string {
	return filepath.Join(outDir, "BENCH_"+gitRev()+".json")
}

func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// updateBench rewrites path with edit applied to its current contents (a
// fresh file when there is none yet).
func updateBench(path, stateFS string, edit func(*benchFile)) error {
	b, err := loadBench(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err = &benchFile{}, nil
	}
	if err != nil {
		return err
	}
	b.Schema = 1
	b.GitRev = gitRev()
	b.GoVersion = runtime.Version()
	b.NProc = runtime.NumCPU()
	b.GOMAXPROCS = runtime.GOMAXPROCS(0)
	b.Transport = "tcp-loopback"
	b.StateFS = stateFS
	if b.Workloads == nil {
		b.Workloads = map[string]*workloadResult{}
	}
	edit(b)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// exactLayers are per-layer counts that depend only on the inputs where
// the schedule fixes how many sets are shipped (the closed loops ship as
// many as fit the window): two such runs with the same seed must report
// them identically.
var exactLayers = []string{"ship.frames_per_set", "detect.verdict_delay_items", "detect.top1_correct"}

var fixedSchedule = map[string]bool{"fleet_paced": true, "fleet_catchup": true}

// compare reports every end-to-end metric × workload on which side b is
// worse than side a by more than the metric's bound, and every exact count
// that differs between same-seed runs. A side is one or more result files
// of the same code, and its value for a metric is the median over its
// files: on a box whose speed shifts for minutes at a time a single run can
// sit inside a slow spell, three runs taken minutes apart rarely all do.
// With same set both sides are the same code (the A/A check): a difference
// in either direction, taken against the smaller value, counts, so the
// verdict does not depend on which side is named first. A declared
// workload or metric that any file lacks, a median of zero, a run that was
// not correct, and more failures in b than in a count too. It returns how
// many it found.
func compare(w io.Writer, a, b []*benchFile, same bool) int {
	bad := 0
	flag := func(workload, format string, args ...any) {
		fmt.Fprintf(w, "%-16s %s\n", workload, fmt.Sprintf(format, args...))
		bad++
	}
	all := append(append([]*benchFile{}, a...), b...)
	for _, wd := range workloadDecls {
		complete := len(a) > 0 && len(b) > 0
		for _, f := range all {
			if r := f.Workloads[wd.Name]; r == nil || r.Untraced == nil {
				complete = false
			}
		}
		if !complete {
			flag(wd.Name, "has no end-to-end run in one of the files")
			continue
		}
		// failed is the most sets any file of a side saw fail.
		failed := func(side []*benchFile) (most int) {
			for _, f := range side {
				r := f.Workloads[wd.Name]
				for _, meta := range []*runMeta{r.Untraced, r.Traced} {
					if meta != nil && !meta.Correct {
						flag(wd.Name, "a run recorded %d of %d failed", meta.Failed, meta.Attempted)
					}
				}
				most = max(most, r.Untraced.Failed)
			}
			return most
		}
		if fa, fb := failed(a), failed(b); fb > fa {
			flag(wd.Name, "failed %d -> %d", fa, fb)
		}
		for _, d := range e2eDecls {
			value := func(side []*benchFile) float64 {
				var vs []float64
				for _, f := range side {
					v := f.Workloads[wd.Name].EndToEnd[d.Name].Median
					if !(v > 0) {
						return 0
					}
					vs = append(vs, v)
				}
				return stats.Median(vs)
			}
			va, vb := value(a), value(b)
			if va == 0 || vb == 0 {
				flag(wd.Name, "%-22s missing or zero in one of the files", d.Name)
				continue
			}
			change := (vb - va) / va
			if d.Better == higher {
				change = -change
			}
			verdict := "ok"
			switch {
			case same && math.Abs(vb-va)/min(va, vb) > d.Bound:
				verdict = "DIFFERS"
				bad++
			case !same && change > d.Bound:
				verdict = "WORSE"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f -> %14.4f %-7s %+7.2f%% (bound %.0f%%) %s\n",
				wd.Name, d.Name, va, vb, d.Unit, -100*change, 100*d.Bound, verdict)
		}
		if !fixedSchedule[wd.Name] {
			continue
		}
		ref := all[0].Workloads[wd.Name]
		for _, f := range all[1:] {
			r := f.Workloads[wd.Name]
			if ref.Traced == nil || r.Traced == nil || ref.Traced.Seed != r.Traced.Seed || ref.Traced.Seconds != r.Traced.Seconds {
				continue
			}
			for _, name := range exactLayers {
				if v0, v := ref.PerLayer[name].Value, r.PerLayer[name].Value; v0 != v {
					flag(wd.Name, "%-22s %14.4f and %14.4f: an exact count differs at the same seed", name, v0, v)
				}
			}
		}
	}
	return bad
}
