package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// dist summarizes one metric's per-slice values in the result file.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Slices int     `json:"slices"`
	// Dropped is how many further slices were left out because the host
	// withheld too much of the CPU while they ran (see maxStolen).
	Dropped int `json:"dropped_slices"`
	// Samples is how many individual observations (sets, rounds) the
	// slices were computed from.
	Samples int `json:"samples"`
}

func summarize(perSlice []float64, samples, dropped int) dist {
	return dist{
		Median:  stats.Median(perSlice),
		Q1:      stats.Percentile(perSlice, 25),
		Q3:      stats.Percentile(perSlice, 75),
		Slices:  len(perSlice),
		Dropped: dropped,
		Samples: samples,
	}
}

// single is the dist of a metric measured once over the whole run.
func single(v float64, samples int) dist {
	return dist{Median: v, Q1: v, Q3: v, Slices: 1, Samples: samples}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads how much CPU time the hypervisor has withheld from this
// guest so far (the steal column of /proc/stat, all CPUs together); 0 on a
// host that reports none.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * (time.Second / userHZ)
}

// userHZ is the unit of /proc/stat's columns: USER_HZ is 100 on every
// Linux architecture Go supports.
const userHZ = 100

// rssMB reads the process's resident set size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// fsName names the filesystem holding dir, for the result file: state on
// tmpfs and state on a disk are different measurements.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "fs-0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
